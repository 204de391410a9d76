"""Source readers (S-class operators).

The reference's only real "sources" are HTTP fetch + GraphQL lookups
(SURVEY.md §2.1 S1/S2), which the target replaces with columnar inputs.
These wrappers standardize how the engine ingests each format:

- column pruning at the read (never load columns a pipeline doesn't use);
- optional expression pushdown for parquet (row-group skipping);
- explicit schema validation after read (M13 analog — Arrow schema
  enforcement instead of runtime duck-typing);
- block coalescing to ~4 tasks per CPU (measured: hundreds of file-sized
  blocks cost more in dispatch than they buy in balance).
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data as rd


def _target_blocks() -> int:
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(32, cpus * 4)


def read_parquet(paths, *, columns: list[str] | None = None, filter=None,
                 coalesce: bool = True):
    kwargs = {}
    if columns:
        kwargs["columns"] = columns
    if filter is not None:
        kwargs["filter"] = filter  # pyarrow dataset expression → row-group pushdown
    if coalesce:
        kwargs["override_num_blocks"] = _target_blocks()
    return rd.read_parquet(paths, **kwargs)


def read_json(paths, **kwargs):
    return rd.read_json(paths, **kwargs)


def read_csv(paths, **kwargs):
    return rd.read_csv(paths, **kwargs)


def read_text(paths, **kwargs):
    return rd.read_text(paths, **kwargs)


def read_binary(paths, include_paths: bool = True, **kwargs):
    """Opaque binary payloads (media files) — one row per file, path kept
    as the id column; feed into stages/multimodal.extract_media_features."""
    return rd.read_binary_files(paths, include_paths=include_paths, **kwargs)


CURATION_DOCS_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("text", pa.string()),
    ("lang", pa.string()),
    ("source", pa.string()),
])


def read_docs_jsonl(paths, *, id_col: str = "id", text_col: str = "text",
                    lang_col: str = "lang", source_col: str = "source",
                    coalesce: bool = True):
    """Dolma/C4-style JSONL document corpora (one JSON object per line:
    ``{"id": ..., "text": ..., "lang": ..., "source": ...}``), normalized
    to the engine's documents schema so every documents-table operator
    (dedup, textstats, curation, decontam, PII, sampling...) runs off
    JSONL unchanged. Field names are remappable for corpora that use
    different keys; extra fields are dropped at the read (the JSONL
    analog of column pruning — they never leave the read task).

    JSON is a row-oriented text format: the parse cost is inherent to
    the container, so prefer Parquet for anything re-read more than
    once (this adapter exists for the ingest hop, not the hot loop)."""
    kwargs = {}
    if coalesce:
        kwargs["override_num_blocks"] = _target_blocks()
    ds = rd.read_json(paths, **kwargs)

    mapping = {id_col: "doc_id", text_col: "text", lang_col: "lang",
               source_col: "source"}

    def norm(t: pa.Table) -> pa.Table:
        cols = {}
        for src, dst in mapping.items():
            if src not in t.column_names:
                raise ValueError(
                    f"JSONL missing field {src!r} (have {t.column_names})")
            cols[dst] = t[src].cast(CURATION_DOCS_SCHEMA.field(dst).type)
        return pa.table(cols, schema=CURATION_DOCS_SCHEMA)

    return ds.map_batches(norm, batch_format="pyarrow")


def validate_schema(ds, expected: pa.Schema, *, strict_types: bool = True):
    """Assert a Dataset's schema matches (names always; types unless
    ``strict_types=False``). Returns ds unchanged — put it right after the
    read so drift fails fast, not three stages later."""
    actual = ds.schema()
    if list(actual.names) != list(expected.names):
        raise ValueError(f"schema names {actual.names} != expected {expected.names}")
    if strict_types:
        actual_types = dict(zip(actual.names, actual.types))
        for field in expected:
            if actual_types[field.name] != field.type:
                raise ValueError(
                    f"column {field.name!r}: type {actual_types[field.name]} "
                    f"!= expected {field.type}"
                )
    return ds
