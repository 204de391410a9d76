"""sentences stage: docs → per-sentence rows (M4/M6 analog).

Stateless flat-map shape: one doc row in, N sentence rows out, via
``map_batches`` (never ``ds.flat_map`` — that is per-row Python). The scan
is order-dependent within one document only (SURVEY.md §2.8), and a whole
document's text is one row, so no cross-block state exists.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import KGConfig
from ..functions.sentences import split_sentences
from .extract import EXTRACT_BATCH_SIZE

SENTENCES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("sent_id", pa.int32()),
        pa.field("text", pa.string()),
        pa.field("char_start", pa.int32()),
        pa.field("char_end", pa.int32()),
    ]
)


def segment_batch(batch: pa.Table) -> pa.Table:
    urls = batch["url"].to_pylist()
    tss = batch["warc_ts"].to_pylist()
    texts = batch["text"].to_pylist()
    o_url, o_ts, o_id, o_text, o_a, o_b = [], [], [], [], [], []
    for url, ts, text in zip(urls, tss, texts):
        for sent_id, stext, a, b in split_sentences(text or ""):
            o_url.append(url)
            o_ts.append(ts)
            o_id.append(sent_id)
            o_text.append(stext)
            o_a.append(a)
            o_b.append(b)
    return pa.Table.from_arrays(
        [
            pa.array(o_url, pa.string()),
            pa.array(o_ts, pa.timestamp("us")),
            pa.array(o_id, pa.int32()),
            pa.array(o_text, pa.string()),
            pa.array(o_a, pa.int32()),
            pa.array(o_b, pa.int32()),
        ],
        schema=SENTENCES_SCHEMA,
    )


def build_sentences(docs_ds, cfg: KGConfig):
    return docs_ds.select_columns(["url", "warc_ts", "text"]).map_batches(
        segment_batch,
        batch_format="pyarrow",
        batch_size=EXTRACT_BATCH_SIZE,
        zero_copy_batch=True,
    )
