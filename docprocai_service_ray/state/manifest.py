"""Per-partition/stage manifest + resume (SURVEY.md §1.2 manifest table,
§4.3 resumable-output row).

The analog of the reference's ingestion-state table + restart consistency
scan (persistence/IngestionStateDbConnector.py:48-104,
service/DocProcAiService.py:639-668): every stage that materializes output
writes to ``<out>/<stage>.tmp-<token>`` then atomically renames to
``<out>/<stage>`` and appends a manifest row; a resumed run skips stages
whose manifest row says DONE and whose output dir exists (the W6
idempotent-overwrite analog — a re-run replaces the partition files).
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import shutil
import time
import uuid

MANIFEST_DIR = "_manifest"


@contextlib.contextmanager
def dir_lock(path: str, name: str = ".lock"):
    """Advisory file lock serializing writers of one output dir — two
    driver processes resuming the same out_dir must not interleave the
    rmtree/rename of a stage."""
    os.makedirs(path, exist_ok=True)
    fd = os.open(os.path.join(path, name), os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"{stage}.json")


# --------------------------- input lineage ---------------------------------
# Each stage row can carry an ``input_sig`` — a fingerprint of everything
# its output derives from (source files for ingest stages, parent stages'
# sigs downstream). ``checkpointed(..., input_sig=...)`` then refuses to
# resume a DONE stage whose stored sig differs: editing one input shard
# invalidates exactly the dependent stages instead of resuming silently
# over stale checkpoints. Rows written before lineage existed (or by
# per-record patches) have no sig and resume as before.


def files_signature(paths: list[str]) -> str:
    """Fingerprint of input FILES: sha1 over each file's (abspath, size,
    mtime_ns). Metadata-only — no file is read; an in-place edit bumps
    mtime, a swapped path changes the name, both invalidate."""
    import hashlib

    h = hashlib.sha1()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{os.path.abspath(p)}|{st.st_size}|{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def table_signature(table) -> str:
    """Content hash of a small in-memory Arrow table (e.g. the broadcast
    alias dictionary) via its IPC stream bytes — deterministic for equal
    content, vocab-sized input only."""
    import hashlib
    import io

    import pyarrow as pa

    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return hashlib.sha1(sink.getvalue()).hexdigest()


def chain_signature(*parts: str | None) -> str | None:
    """Compose a child stage's input sig from its name + parent sigs;
    ``None`` propagates (unknown lineage → legacy resume behavior)."""
    if any(p is None for p in parts):
        return None
    import hashlib

    return hashlib.sha1("|".join(parts).encode()).hexdigest()


def _manifest_field(out_dir: str, stage: str, field: str):
    try:
        with open(_manifest_path(out_dir, stage)) as f:
            return json.load(f).get(field)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None


def stage_input_sig(out_dir: str, stage: str) -> str | None:
    return _manifest_field(out_dir, stage, "input_sig")


def read_stage(out_dir: str, stage: str, columns: list[str] | None = None):
    """A stage's Parquet output as a Dataset. The Hive partition columns
    its manifest row records (``partitioned_by``: integer bucket ids) read
    back as integers, as the stage produced them, not as the strings of
    their directory names."""
    import ray.data as rd
    from ray.data.datasource.partitioning import Partitioning

    parts = _manifest_field(out_dir, stage, "partitioned_by")
    kw = {}
    if parts:
        kw["partitioning"] = Partitioning(
            "hive", field_types={c: int for c in parts.split(",")})
    return rd.read_parquet(stage_output_dir(out_dir, stage), columns=columns, **kw)


def stage_output_dir(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, stage)


def is_stage_done(out_dir: str, stage: str) -> bool:
    p = _manifest_path(out_dir, stage)
    if not os.path.exists(p) or not os.path.isdir(stage_output_dir(out_dir, stage)):
        return False
    try:
        with open(p) as f:
            return json.load(f).get("state") == "DONE"
    except (json.JSONDecodeError, OSError):
        return False


def read_manifest(out_dir: str) -> list[dict]:
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    rows = []
    if os.path.isdir(mdir):
        for name in sorted(os.listdir(mdir)):
            if name.endswith(".json"):
                with open(os.path.join(mdir, name)) as f:
                    rows.append(json.load(f))
    return rows


def _write_parquet(ds, path: str, **write_kwargs) -> None:
    """``ds.write_parquet(path)``, plus one empty file carrying the schema
    when ``ds`` has no rows (Ray writes no file then, and the stage would
    not read back); under ``partition_cols`` it sits in a ``<col>=0``
    directory, as the Hive layout's readers expect."""
    ds.write_parquet(path, **write_kwargs)
    if not os.path.isdir(path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        parts = write_kwargs.get("partition_cols") or []
        base = getattr(ds.schema(), "base_schema", None)
        fields = [f for f in base if f.name not in parts] if isinstance(
            base, pa.Schema) else []
        sub = os.path.join(path, *(f"{c}=0" for c in parts))
        os.makedirs(sub)
        pq.write_table(pa.schema(fields).empty_table(),
                       os.path.join(sub, "empty.parquet"))


def write_stage(
    ds,
    out_dir: str,
    stage: str,
    extra: dict | None = None,
    write_kwargs: dict | None = None,
) -> str:
    """Write a Dataset's parquet output for ``stage`` atomically and record
    the manifest row (with ``partitioned_by`` when ``write_kwargs`` names
    ``partition_cols``, for :func:`read_stage`). Returns the final output
    dir."""
    final = stage_output_dir(out_dir, stage)
    tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(os.path.dirname(final) or ".", exist_ok=True)
    t0 = time.monotonic()
    _write_parquet(ds, tmp, **(write_kwargs or {}))
    wall = time.monotonic() - t0
    with dir_lock(out_dir):
        if os.path.isdir(final):
            shutil.rmtree(final)  # idempotent overwrite (W6 analog)
        os.rename(tmp, final)
    n_files = sum(
        len([f for f in fs if f.endswith(".parquet")])
        for _, _, fs in os.walk(final)
    )
    try:
        import pyarrow.dataset as pads

        rows_out = pads.dataset(final).count_rows()  # parquet metadata only
    except Exception:
        rows_out = None
    row = {
        "stage": stage,
        "state": "DONE",
        "wall_s": round(wall, 3),
        "output_path": final,
        "n_files": n_files,
        "rows_out": rows_out,
        **(extra or {}),
    }
    if (write_kwargs or {}).get("partition_cols"):
        row["partitioned_by"] = ",".join(write_kwargs["partition_cols"])
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    mp = _manifest_path(out_dir, stage)
    with open(mp + ".tmp", "w") as f:
        json.dump(row, f)
    os.replace(mp + ".tmp", mp)
    return final


def _part_manifest_path(out_dir: str, stage: str, pid: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"{stage}.part-{pid:05d}.json")


def is_partition_done(out_dir: str, stage: str, pid: int,
                      input_sig: str | None = None) -> bool:
    p = _part_manifest_path(out_dir, stage, pid)
    pdir = os.path.join(stage_output_dir(out_dir, stage), f"part-{pid:05d}")
    if not os.path.exists(p) or not os.path.isdir(pdir):
        return False
    try:
        with open(p) as f:
            row = json.load(f)
    except (json.JSONDecodeError, OSError):
        return False
    if row.get("state") != "DONE":
        return False
    stored = row.get("input_sig")
    # a stored sig that DIFFERS means this partition's input files changed
    # since it landed — stale; missing sigs (pre-lineage rows) resume
    return input_sig is None or stored is None or stored == input_sig


def checkpointed_partitioned(
    part_fn,
    input_files: list[str],
    out_dir: str,
    stage: str,
    resume: bool = True,
    num_partitions: int = 8,
    salt: str | None = None,
):
    """Partition-granular checkpoint for MAP-ONLY stages (each output row
    depends only on its own input partition — never use for shuffles).

    The input file list is split round-robin into ``num_partitions``
    deterministic shards; each shard runs ``part_fn(files) -> Dataset`` and
    writes to ``<out>/<stage>/part-<pid>/`` with its own manifest row. A
    resumed run recomputes ONLY the partitions without a DONE row — the
    SURVEY §1.2 manifest ``partition_id`` column made real (the analog of
    the reference re-ingesting one record end-to-end,
    service/DocProcAiService.py:102-103, at shard granularity).
    """
    input_files = sorted(input_files)
    stage_sig = chain_signature(files_signature(input_files), salt or "")
    if resume and is_stage_done(out_dir, stage) and (
        stage_input_sig(out_dir, stage) in (None, stage_sig)
    ):
        return read_stage(out_dir, stage)
    shards = [input_files[i::num_partitions] for i in range(num_partitions)]
    shards = [s for s in shards if s]
    stage_dir = stage_output_dir(out_dir, stage)
    for pid, files in enumerate(shards):
        part_sig = chain_signature(files_signature(files), salt or "")
        # per-partition lineage: editing ONE input shard recomputes ONLY
        # its partition (the stage-level sig above catches the change and
        # drops us into this loop; untouched partitions still match)
        if resume and is_partition_done(out_dir, stage, pid, input_sig=part_sig):
            continue
        final = os.path.join(stage_dir, f"part-{pid:05d}")
        tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
        t0 = time.monotonic()
        _write_parquet(part_fn(files), tmp)
        wall = time.monotonic() - t0
        with dir_lock(out_dir):
            if os.path.isdir(final):
                shutil.rmtree(final)
            os.makedirs(stage_dir, exist_ok=True)
            os.rename(tmp, final)
        row = {
            "stage": stage,
            "partition_id": pid,
            "state": "DONE",
            "wall_s": round(wall, 3),
            "output_path": final,
            "n_input_files": len(files),
            "input_sig": part_sig,
        }
        os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
        mp = _part_manifest_path(out_dir, stage, pid)
        with open(mp + ".tmp", "w") as f:
            json.dump(row, f)
        os.replace(mp + ".tmp", mp)
    # a shrunk input file list leaves orphan partitions from the previous
    # derivation — drop them so the stage read sees exactly this input
    if os.path.isdir(stage_dir):
        for name in os.listdir(stage_dir):
            if name.startswith("part-") and name[5:10].isdigit():
                pid = int(name[5:10])
                if pid >= len(shards):
                    with dir_lock(out_dir):
                        shutil.rmtree(os.path.join(stage_dir, name),
                                      ignore_errors=True)
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(_part_manifest_path(out_dir, stage, pid))
    # stage-level DONE row once every partition has one
    row = {
        "stage": stage,
        "state": "DONE",
        "output_path": stage_dir,
        "n_partitions": len(shards),
        "partitioned": True,
        "input_sig": stage_sig,
    }
    mp = _manifest_path(out_dir, stage)
    with open(mp + ".tmp", "w") as f:
        json.dump(row, f)
    os.replace(mp + ".tmp", mp)
    return read_stage(out_dir, stage)


def _inflight_path(out_dir: str, op: str) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"_inflight-{op}.json")


def begin_inflight(out_dir: str, op: str, detail: dict | None = None) -> None:
    """Mark a multi-stage mutation (e.g. a reprocess cascade) as in
    flight BEFORE its first stage patch lands. Until :func:`clear_inflight`
    runs, a resumed driver can see that per-stage DONE rows may be
    mutually inconsistent (the reference's transactional-cascade analog:
    stage renames are atomic individually, the cascade is not)."""
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    p = _inflight_path(out_dir, op)
    row = {"op": op, "state": "IN_FLIGHT", **(detail or {})}
    with open(p + ".tmp", "w") as f:
        json.dump(row, f)
    os.replace(p + ".tmp", p)


def clear_inflight(out_dir: str, op: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(_inflight_path(out_dir, op))


def get_inflight(out_dir: str, op: str) -> dict | None:
    """The pending marker for ``op``, or None if the last cascade
    completed."""
    try:
        with open(_inflight_path(out_dir, op)) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None


def checkpointed(ds_fn, out_dir: str | None, stage: str, resume: bool = True,
                 input_sig: str | None = None,
                 partition_cols: list[str] | None = None):
    """Run ``ds_fn()`` → Dataset, materialized as a parquet checkpoint when
    ``out_dir`` is set; on resume, reuse a DONE stage's files instead of
    recomputing (resume granularity = stage; shuffle stages cannot resume
    mid-shuffle, SURVEY.md §7.4). With ``out_dir=None`` it is just
    ``ds_fn()`` (a streaming run of the same stage chain).

    ``input_sig`` (optional) is the stage's input lineage fingerprint: a
    DONE stage whose stored sig exists and DIFFERS is stale (an upstream
    input changed since it was written) and is recomputed; a row without a
    stored sig (pre-lineage, or rewritten by a per-record patch) resumes
    as before. ``partition_cols`` (integer columns) hive-partition the
    checkpoint."""
    if out_dir is None:
        return ds_fn()
    if resume and is_stage_done(out_dir, stage):
        stored = stage_input_sig(out_dir, stage)
        if input_sig is None or stored is None or stored == input_sig:
            return read_stage(out_dir, stage)
    write_stage(ds_fn(), out_dir, stage,
                extra={"input_sig": input_sig} if input_sig else None,
                write_kwargs={"partition_cols": partition_cols} if partition_cols else None)
    return read_stage(out_dir, stage)
