"""JSONL export sink (sources/export): round-trip through
read_docs_jsonl, checksum manifest integrity, content-addressed
idempotence, corruption detection, empty-block and plain-text modes.
File-level op — no SQL twin (the S6/WARC convention)."""

from __future__ import annotations

import glob
import gzip
import json
import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.sources.export import export_jsonl, verify_export
from docprocai_service_ray.sources.readers import read_docs_jsonl

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs(n: int = 40) -> pd.DataFrame:
    return pd.DataFrame({
        "id": np.arange(n, dtype="int64"),
        "text": [f"doc {i} body with ünicode ≠ ascii" for i in range(n)],
        "lang": ["en" if i % 2 else "de" for i in range(n)],
        "source": [f"s{i % 3}" for i in range(n)],
    })


def test_roundtrip_and_manifest(tmp_path):
    docs = _docs()
    out = str(tmp_path / "dump")
    man = export_jsonl(rd.from_pandas(docs).repartition(4), out,
                       sort_within_shard="id")
    assert man["n_rows"].sum() == len(docs)
    assert verify_export(out)["ok"]
    with open(os.path.join(out, "manifest.json")) as f:
        j = json.load(f)
    assert j["n_rows"] == len(docs)
    # read_docs_jsonl normalizes to the engine documents schema (id → doc_id)
    back = (read_docs_jsonl(sorted(glob.glob(out + "/shard-*.jsonl.gz")))
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    exp = docs.rename(columns={"id": "doc_id"})
    pd.testing.assert_frame_equal(
        back[["doc_id", "text", "lang", "source"]].astype(
            {"doc_id": "int64"}), exp)


def test_content_addressed_idempotence(tmp_path):
    docs = _docs(20)
    out = str(tmp_path / "dump")
    m1 = export_jsonl(rd.from_pandas(docs).repartition(2), out,
                      sort_within_shard="id")
    files1 = sorted(os.listdir(out))
    mtimes1 = {f: os.path.getmtime(os.path.join(out, f)) for f in files1}
    m2 = export_jsonl(rd.from_pandas(docs).repartition(2), out,
                      sort_within_shard="id")
    assert sorted(os.listdir(out)) == files1
    pd.testing.assert_frame_equal(m1, m2)
    # existing shards were not rewritten (content-addressed skip)
    for f in files1:
        if f.startswith("shard-"):
            assert os.path.getmtime(os.path.join(out, f)) == mtimes1[f]


def test_corruption_detected(tmp_path):
    out = str(tmp_path / "dump")
    export_jsonl(rd.from_pandas(_docs(10)), out)
    shard = sorted(glob.glob(out + "/shard-*"))[0]
    with open(shard, "ab") as f:
        f.write(b"tamper")
    res = verify_export(out)
    assert not res["ok"] and os.path.basename(shard) in res["bad"]


def test_plain_and_column_subset(tmp_path):
    out = str(tmp_path / "plain")
    export_jsonl(rd.from_pandas(_docs(6)), out, gzip_shards=False,
                 columns=["id", "text"], sort_within_shard="id")
    shard = sorted(glob.glob(out + "/shard-*.jsonl"))[0]
    lines = [json.loads(l) for l in open(shard, encoding="utf-8")]
    assert set(lines[0].keys()) == {"id", "text"}
    assert verify_export(out)["ok"]


def test_duplicate_blocks_collapse_in_manifest(tmp_path):
    """Two blocks with identical bytes → ONE file on disk; the manifest
    must list it once (directory scan == manifest) with the collapse
    surfaced via n_source_blocks / n_dedup_rows, not double-counted."""
    docs = _docs(10)
    dup = rd.from_pandas(docs).repartition(1).union(
        rd.from_pandas(docs).repartition(1))
    out = str(tmp_path / "dupdump")
    man = export_jsonl(dup, out, sort_within_shard="id")
    shards_on_disk = sorted(
        f for f in os.listdir(out) if f.startswith("shard-"))
    assert list(man["file"]) == shards_on_disk          # manifest == dir
    assert len(man) == 1 and man["n_source_blocks"].iloc[0] == 2
    assert man["n_rows"].iloc[0] == len(docs)           # on-disk truth
    with open(os.path.join(out, "manifest.json")) as f:
        j = json.load(f)
    assert j["n_rows"] == len(docs)
    assert j["n_input_rows"] == 2 * len(docs)
    assert j["n_dedup_rows"] == len(docs)
    assert verify_export(out)["ok"]


def test_empty_dataset_exports_empty_manifest(tmp_path):
    """A filter that keeps no row (a release split with no document)
    exports no shard and an empty manifest, instead of failing on the
    missing ``file`` column."""
    out = str(tmp_path / "empty")
    man = export_jsonl(rd.from_pandas(_docs(5)).filter(lambda r: False), out)
    assert len(man) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        j = json.load(f)
    assert (j["n_rows"], j["n_input_rows"], j["n_shards"]) == (0, 0, 0)
    assert verify_export(out)["ok"]
