"""triples_raw stage: sentences → (subj, pred, obj) rows (ST4 analog).

Plain task-pool ``map_batches``: the predicate pattern is the module
constant ``SENTENCE_PATTERN`` and sentence splitting is a pure function, so
a worker has no state to build — the batch functions run as tasks on Ray's
warm workers, with no per-pass process start-up. Actor pools stay only
where per-worker state costs something to build or accumulates across
batches (the reference reloads its model per task —
TranscriptGenerator.py:29-30 via VideoProcessor.py:40 — the anti-pattern
actor pools fix; SURVEY.md §2.3 ST1/ST4).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..config import KGConfig
from ..functions.sentences import split_sentences
from ..functions.triples import _PHRASES, PREDICATES, extract_triples

TRIPLES_RAW_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("sent_id", pa.int32()),
        pa.field("subj", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("subj_start", pa.int32()),
        pa.field("subj_len", pa.int32()),
        pa.field("obj_start", pa.int32()),
        pa.field("obj_len", pa.int32()),
        pa.field("conf", pa.float32()),
    ]
)


def _triples_table(rows: list[tuple]) -> pa.Table:
    """(url, warc_ts, sent_id, *extract_triples row) tuples → triples_raw."""
    cols = list(zip(*rows)) or [()] * len(TRIPLES_RAW_SCHEMA)
    return pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, TRIPLES_RAW_SCHEMA)],
        schema=TRIPLES_RAW_SCHEMA,
    )


def triples_from_sentences(batch: pa.Table) -> pa.Table:
    """sentences → triples_raw. A vectorized Arrow prefilter
    (``match_substring_regex`` on the phrase alternation — a strict
    superset of full-pattern matches) drops the sentences that cannot
    possibly contain a triple before any Python-level regex runs; on
    prose-heavy corpora that is most of them."""
    batch = batch.filter(pc.match_substring_regex(batch["text"], _PHRASES))
    return _triples_table([
        (url, ts, sid, *t)
        for url, ts, sid, text in zip(
            batch["url"].to_pylist(), batch["warc_ts"].to_pylist(),
            batch["sent_id"].to_pylist(), batch["text"].to_pylist())
        for t in extract_triples(text)
    ])


def build_triples_raw(sentences_ds, cfg: KGConfig):
    return sentences_ds.map_batches(
        triples_from_sentences,
        batch_format="pyarrow",
        batch_size=cfg.triple_batch_size,
    )


_PHRASE_LIST = tuple(PREDICATES.values())


def triples_from_docs(batch: pa.Table) -> pa.Table:
    """Operator fusion for the streaming path: docs → triples_raw in ONE
    batch fn. Semantically identical to segment_batch ∘
    triples_from_sentences (parity-tested), but the ~20-sentences-per-doc
    intermediate rows never become an Arrow table — only sentences that
    survive the predicate prefilter pay any per-row cost."""
    rows = []
    for url, ts, text in zip(batch["url"].to_pylist(),
                             batch["warc_ts"].to_pylist(),
                             batch["text"].to_pylist()):
        for sent_id, stext, _, _ in split_sentences(text or ""):
            if any(p in stext for p in _PHRASE_LIST):  # cheap prefilter
                rows.extend((url, ts, sent_id, *t) for t in extract_triples(stext))
    return _triples_table(rows)


def build_triples_raw_fused(docs_ds, cfg: KGConfig):
    """docs → triples_raw without an intermediate sentences table."""
    return docs_ds.select_columns(["url", "warc_ts", "text"]).map_batches(
        triples_from_docs,
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
    )
