"""WARC crawl ingest (ISO 28500 / Common-Crawl container format).

The reference fetches pages over HTTP one at a time (S1,
service/DocProcAiService.py ingest path); a 100-TB web corpus arrives
instead as WARC archives — millions of ~1 GB files of concatenated
records, each optionally an independent gzip member (the Common-Crawl
layout). This adapter parses them into the engine's ``web_pages`` schema
so the whole KG pipeline runs off a crawl directly:

- ``read_pages_warc(paths)``: ``ray.data.read_binary_files`` (one task
  per archive — at crawl scale parallelism = file count, which is the
  natural unit: a WARC archive is self-contained and order-independent)
  → one vectorized parse per file → Arrow ``WEB_PAGES_SCHEMA`` rows.
- Record selection: ``WARC-Type: response`` / ``resource`` /
  ``conversion`` carry content; ``warcinfo`` / ``request`` / ``metadata``
  / ``revisit`` are skipped. HTTP response payloads are unwrapped (the
  header block before the first CRLFCRLF is dropped).
- ``lang`` maps from ``WARC-Identified-Content-Language`` (the
  Common-Crawl language header; first tag if multi-valued), ``warc_ts``
  from ``WARC-Date``, ``url`` from ``WARC-Target-URI``. ``text`` is
  null — extraction is the pipeline's job, not the reader's.
- gzip: both whole-file gzip and the CC per-record-member layout
  decompress via one ``gzip.decompress`` call (Python's gzip walks
  concatenated members).

Memory note: parsing is a single forward pass but holds one decompressed
archive per task (~1-4 GB for CC-sized files) — size ``read_binary_files``
tasks' ``num_cpus``/concurrency so archives × workers fit the heap; the
object store only ever sees the parsed (url, ts, html, lang) columns.

``write_warc`` exists for fixtures and round-trip tests: it emits
spec-shaped records (optionally per-record gzip members) deterministically.
"""

from __future__ import annotations

import gzip
import io
from datetime import datetime, timedelta, timezone

import pyarrow as pa

_CONTENT_TYPES = {b"response", b"resource", b"conversion"}


def _parse_headers(block: bytes) -> dict[bytes, bytes]:
    headers: dict[bytes, bytes] = {}
    for line in block.split(b"\r\n")[1:]:  # [0] is the WARC/1.x version line
        k, sep, v = line.partition(b":")
        if sep:
            headers[k.strip().lower()] = v.strip()
    return headers


def _warc_date_to_us(raw: bytes):
    """``WARC-Date`` (ISO 8601, UTC ``Z`` suffix) → naive-UTC microseconds
    since epoch, matching the corpus's ``timestamp[us]`` convention."""
    try:
        dt = datetime.fromisoformat(raw.decode("ascii").replace("Z", "+00:00"))
    except ValueError:
        return None
    dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return (dt - datetime(1970, 1, 1)) // timedelta(microseconds=1)


def iter_warc_records(data: bytes):
    """Yield ``(headers, payload)`` per record from raw (decompressed)
    WARC bytes — a single forward scan, no regex, no copies beyond the
    payload slice."""
    pos, n = 0, len(data)
    while pos < n:
        # tolerate inter-record padding
        while pos < n and data[pos : pos + 1] in (b"\r", b"\n"):
            pos += 1
        if pos >= n:
            return
        if not data.startswith(b"WARC/", pos):
            raise ValueError(f"malformed WARC: no version marker at byte {pos}")
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            raise ValueError("malformed WARC: unterminated header block")
        headers = _parse_headers(data[pos:hdr_end])
        try:
            length = int(headers[b"content-length"])
        except (KeyError, ValueError):
            raise ValueError("malformed WARC: missing/bad Content-Length")
        body_start = hdr_end + 4
        payload = data[body_start : body_start + length]
        yield headers, payload
        pos = body_start + length


def _strip_http(payload: bytes) -> bytes:
    """Drop the HTTP response header block of an ``application/http``
    payload (CC ``response`` records); pass anything else through."""
    if payload.startswith(b"HTTP/"):
        split = payload.find(b"\r\n\r\n")
        if split >= 0:
            return payload[split + 4 :]
    return payload


def _maybe_gunzip(data: bytes) -> bytes:
    if data[:2] == b"\x1f\x8b":
        return gzip.decompress(data)  # walks concatenated members (CC layout)
    return data


def parse_warc_pages(data: bytes) -> pa.Table:
    """Raw archive bytes → ``WEB_PAGES_SCHEMA`` Arrow table (content
    records only; ``text`` stays null for the extraction stage)."""
    from .webgen import WEB_PAGES_SCHEMA

    urls, tss, htmls, langs = [], [], [], []
    for headers, payload in iter_warc_records(_maybe_gunzip(data)):
        if headers.get(b"warc-type") not in _CONTENT_TYPES:
            continue
        uri = headers.get(b"warc-target-uri")
        if uri is None:
            continue
        urls.append(uri.decode("utf-8", "replace"))
        raw_ts = headers.get(b"warc-date")
        tss.append(_warc_date_to_us(raw_ts) if raw_ts else None)
        htmls.append(_strip_http(payload))
        lang = headers.get(b"warc-identified-content-language")
        langs.append(lang.split(b",")[0].decode("ascii", "replace") if lang else None)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.nulls(len(urls), pa.string()),
            "lang": pa.array(langs, pa.string()),
        },
        schema=WEB_PAGES_SCHEMA,
    )


def read_pages_warc(paths, *, concurrency: int | None = None):
    """WARC archive(s) → ``web_pages``-schema Dataset. One parse task per
    archive; feed the result straight to ``run_kg``'s extraction (or
    ``write_parquet`` it once and re-read columnar — WARC is the ingest
    hop, Parquet is the hot loop, exactly like the JSONL adapter)."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=False)

    def parse(batch: pa.Table) -> pa.Table:
        tables = [parse_warc_pages(b.as_py()) for b in batch["bytes"]]
        from .webgen import WEB_PAGES_SCHEMA

        if not tables:
            return WEB_PAGES_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    kwargs = {"batch_format": "pyarrow"}
    if concurrency:
        kwargs["concurrency"] = concurrency
    return ds.map_batches(parse, **kwargs)


def write_warc(records, path: str, *, gzip_records: bool = False) -> None:
    """Fixture writer: ``records`` iterates (url, iso_date_str, payload
    bytes, lang-or-None, warc_type-or-'response', http_wrap bool).
    ``gzip_records=True`` emits one gzip member per record (the
    Common-Crawl layout)."""
    out = io.BytesIO()
    for url, date, payload, lang, wtype, http_wrap in records:
        if http_wrap:
            payload = (
                b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + payload
            )
        lines = [
            b"WARC/1.0",
            b"WARC-Type: " + wtype.encode(),
            b"WARC-Target-URI: " + url.encode(),
            b"WARC-Date: " + date.encode(),
        ]
        if lang:
            lines.append(b"WARC-Identified-Content-Language: " + lang.encode())
        lines.append(b"Content-Length: " + str(len(payload)).encode())
        rec = b"\r\n".join(lines) + b"\r\n\r\n" + payload + b"\r\n\r\n"
        out.write(gzip.compress(rec, mtime=0) if gzip_records else rec)
    with open(path, "wb") as f:
        f.write(out.getvalue())


def export_warc(ds, out_dir: str, *, gzip_records: bool = True) -> "object":
    """``web_pages``-schema Dataset → a DIRECTORY of WARC archives, one
    per block, content-addressed names (sha256 of the archive bytes —
    the sources/export.py discipline: idempotent re-export, crash leaves
    only complete archives). The inverse of :func:`read_pages_warc`;
    exists so WARC ingest can be exercised and benchmarked at corpus
    scale without a real crawl.

    Each task serializes its own block (records in block row order,
    ``warc_ts`` rendered back to ISO-8601 ``Z``); only KB-sized manifest
    rows return to the driver. Returns the manifest DataFrame
    (file, n_records, n_bytes, sha256)."""
    import hashlib
    import os
    import uuid

    os.makedirs(out_dir, exist_ok=True)
    ext = ".warc.gz" if gzip_records else ".warc"

    def write_archive(batch: pa.Table) -> "pa.Table":
        man_schema = pa.schema([("file", pa.string()),
                                ("n_records", pa.int64()),
                                ("n_bytes", pa.int64()),
                                ("sha256", pa.string())])
        if batch.num_rows == 0:
            return man_schema.empty_table()
        out = io.BytesIO()
        urls = batch["url"].to_pylist()
        tss = batch["warc_ts"].to_pylist()
        htmls = batch["html"].to_pylist()
        langs = batch["lang"].to_pylist()
        for url, ts, html, lang in zip(urls, tss, htmls, langs):
            fmt = "%Y-%m-%dT%H:%M:%S.%fZ" if ts.microsecond else "%Y-%m-%dT%H:%M:%SZ"
            date = ts.strftime(fmt)  # µs preserved ⇒ lossless round-trip
            payload = html or b""
            lines = [
                b"WARC/1.0",
                b"WARC-Type: response",
                b"WARC-Target-URI: " + url.encode(),
                b"WARC-Date: " + date.encode(),
            ]
            if lang:
                lines.append(b"WARC-Identified-Content-Language: "
                             + lang.encode())
            lines.append(b"Content-Length: " + str(len(payload)).encode())
            rec = b"\r\n".join(lines) + b"\r\n\r\n" + payload + b"\r\n\r\n"
            out.write(gzip.compress(rec, mtime=0) if gzip_records else rec)
        data = out.getvalue()
        sha = hashlib.sha256(data).hexdigest()
        name = f"crawl-{sha[:16]}{ext}"
        final = os.path.join(out_dir, name)
        if not os.path.exists(final):
            tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, final)
        return pa.table({"file": [name],
                         "n_records": pa.array([batch.num_rows], pa.int64()),
                         "n_bytes": pa.array([len(data)], pa.int64()),
                         "sha256": [sha]}, schema=man_schema)

    # batch_size=None ⇒ whole-block batches: ONE archive per block, so
    # downstream parse parallelism == block count by construction
    man = (ds.map_batches(write_archive, batch_format="pyarrow",
                          batch_size=None)
           .to_pandas())
    # collapse duplicate-content archives exactly like export_jsonl
    man = (man.groupby(["file", "sha256"], as_index=False)
           .agg(n_records=("n_records", "first"), n_bytes=("n_bytes", "first"))
           [["file", "n_records", "n_bytes", "sha256"]]
           .sort_values("file").reset_index(drop=True))
    return man


def ensure_warc_corpus(n_pages: int, seed: int, dim: int = 64, *,
                       n_archives: int = 128) -> str:
    """Cached WARC rendering of the synthetic corpus: the parquet corpus
    (webgen.ensure_corpus) re-serialized as ``n_archives`` gzip-per-record
    archives — the Common-Crawl shape — so WARC ingest can be benchmarked
    at corpus scale. Generation runs ONCE per (n_pages, seed, n_archives)
    and is excluded from any timing (sibling ``.done`` marker)."""
    import os

    import ray.data as rd

    from .webgen import ensure_corpus

    corpus = ensure_corpus(n_pages, seed, dim)
    out = f"{corpus.rstrip('/')}_warc{n_archives}"
    marker = out + ".done"
    if os.path.exists(marker):
        return out
    pages = rd.read_parquet(os.path.join(corpus, "web_pages"))
    export_warc(pages.repartition(n_archives), out)
    with open(marker, "w") as f:
        f.write("ok")
    return out
