"""Dolma-style JSONL corpus export — the publication sink: one
gzip-able JSONL shard per block, CONTENT-ADDRESSED file names (the
sha256 of the shard's bytes names the file), and a driver-side
``manifest.json`` listing (file, rows, bytes, sha256) — exactly the
layout open-data corpus releases (Dolma, C4 dumps) ship so consumers
can verify integrity and resume partial mirrors.

Why content-addressed: shard identity derives from DATA, not from block
scheduling — re-exporting the same dataset writes byte-identical files
under identical names (idempotent, tested), a crashed export leaves only
complete shards (each lands via tmp-file + atomic rename), and the
manifest diff between two exports IS the data diff.

Scale shape: the export is one map over blocks (each task serializes and
writes its own shard to the shared output FS — the same shared-FS
contract every manifest stage write in state/manifest.py relies on);
only the KB-sized (file, rows, sha) rows return to the driver for the
manifest. JSON-serialization cost is inherent to the container (see
sources/readers.read_docs_jsonl) — this sink exists for the publication
hop, not the hot loop.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import uuid

import pandas as pd


def _shard_bytes(df: pd.DataFrame, columns: list[str] | None) -> bytes:
    cols = columns or list(df.columns)
    out = []
    for rec in df[cols].to_dict("records"):
        out.append(json.dumps(rec, ensure_ascii=False, sort_keys=True,
                              default=str))
    return ("\n".join(out) + "\n").encode("utf-8") if out else b""


def export_jsonl(ds, out_dir: str, *, columns: list[str] | None = None,
                 gzip_shards: bool = True, sort_within_shard: str | None = None
                 ) -> pd.DataFrame:
    """Export a Dataset as content-addressed JSONL shards; returns the
    manifest (file, n_rows, n_bytes, sha256) and writes it as
    ``manifest.json``. Pass ``sort_within_shard`` (a column name) to make
    shard bytes independent of in-block row order — combined with a
    deterministic upstream partitioning this makes whole exports
    byte-reproducible."""
    os.makedirs(out_dir, exist_ok=True)
    ext = ".jsonl.gz" if gzip_shards else ".jsonl"

    def write_shard(df: pd.DataFrame) -> pd.DataFrame:
        if sort_within_shard:
            df = df.sort_values(sort_within_shard, kind="stable")
        raw = _shard_bytes(df, columns)
        if gzip_shards:
            # mtime=0 → deterministic gzip container (idempotence contract)
            payload = gzip.compress(raw, mtime=0)
        else:
            payload = raw
        sha = hashlib.sha256(payload).hexdigest()
        name = f"shard-{sha[:16]}{ext}"
        final = os.path.join(out_dir, name)
        if not os.path.exists(final):  # content-addressed ⇒ skip rewrite
            tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
            with open(tmp, "wb") as f:
                f.write(payload)
            os.replace(tmp, final)
        return pd.DataFrame({"file": [name],
                             "n_rows": pd.Series([len(df)], dtype="int64"),
                             "n_bytes": pd.Series([len(payload)],
                                                  dtype="int64"),
                             "sha256": [sha]})

    from ..state.groupby import collect_pandas

    raw = collect_pandas(ds.map_batches(write_shard, batch_format="pandas"),
                         ["file", "n_rows", "n_bytes", "sha256"]
                         ).sort_values("file").reset_index(drop=True)
    # Two blocks can serialize to identical bytes (duplicate data) — only
    # ONE file exists on disk then, so the manifest must list it once or
    # directory-scanning consumers and manifest-driven readers disagree on
    # row counts. Aggregate per file: n_rows = rows IN THE FILE (on-disk
    # truth), n_source_blocks surfaces the collapse loudly instead of
    # silently double-counting.
    manifest = (raw.groupby(["file", "sha256"], as_index=False)
                .agg(n_rows=("n_rows", "first"), n_bytes=("n_bytes", "first"),
                     n_source_blocks=("file", "size"))
                [["file", "n_rows", "n_bytes", "sha256", "n_source_blocks"]]
                .sort_values("file").reset_index(drop=True))
    n_dup_blocks = int(raw["n_rows"].sum() - manifest["n_rows"].sum())
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump({"shards": manifest.to_dict("records"),
                   "n_rows": int(manifest["n_rows"].sum()),
                   "n_input_rows": int(raw["n_rows"].sum()),
                   "n_dedup_rows": n_dup_blocks,
                   "n_shards": int(len(manifest))}, f, indent=1)
    return manifest


def verify_export(out_dir: str) -> dict:
    """Re-hash every shard against ``manifest.json`` — the consumer-side
    integrity check. Returns {ok, n_shards, bad: [...]}."""
    with open(os.path.join(out_dir, "manifest.json")) as f:
        man = json.load(f)
    bad = []
    for row in man["shards"]:
        p = os.path.join(out_dir, row["file"])
        try:
            with open(p, "rb") as f:
                payload = f.read()
            if hashlib.sha256(payload).hexdigest() != row["sha256"]:
                bad.append(row["file"])
        except OSError:
            bad.append(row["file"])
    return {"ok": not bad, "n_shards": len(man["shards"]), "bad": bad}
