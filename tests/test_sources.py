"""Source readers + windows tests."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.sources.readers import (
    CURATION_DOCS_SCHEMA,
    read_binary,
    read_csv,
    read_docs_jsonl,
    read_json,
    read_parquet,
    validate_schema,
)
from docprocai_service_ray.stages.windows import session_stats, sliding_counts

SF = "/root/testdata/sf0.001"


class TestReaders:
    def test_parquet_column_pruning(self):
        ds = read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey"])
        assert ds.schema().names == ["o_orderkey"]
        assert ds.count() == 1500

    def test_parquet_filter_pushdown(self):
        import pyarrow.compute as pc

        ds = read_parquet(
            f"{SF}/orders.parquet",
            columns=["o_orderkey", "o_orderstatus"],
            filter=(pc.field("o_orderstatus") == "F"),
        )
        assert all(r["o_orderstatus"] == "F" for r in ds.take(50))

    def test_csv_json_binary_roundtrip(self, tmp_path):
        df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        csv = tmp_path / "t.csv"
        df.to_csv(csv, index=False)
        assert read_csv(str(csv)).count() == 3
        jsonl = tmp_path / "t.json"
        df.to_json(jsonl, orient="records", lines=True)
        assert read_json(str(jsonl)).count() == 3
        binf = tmp_path / "blob.bin"
        binf.write_bytes(b"\x00\x01payload")
        rows = read_binary(str(binf)).take_all()
        assert rows[0]["bytes"] == b"\x00\x01payload"
        assert rows[0]["path"].endswith("blob.bin")

    def test_docs_jsonl_equivalent_to_parquet(self, tmp_path):
        """The same documents via JSONL and Parquet must drive a
        documents-table operator to IDENTICAL output."""
        import json

        from docprocai_service_ray.stages.textstats import lang_mix_weights

        df = (read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text", "lang", "source"])
              .to_pandas())
        for shard in range(3):  # dolma-style: {"id","text","lang","source"}
            part = df[df["doc_id"] % 3 == shard]
            with open(tmp_path / f"docs-{shard}.jsonl", "w") as f:
                for r in part.itertuples():
                    f.write(json.dumps({"id": int(r.doc_id), "text": r.text,
                                        "lang": r.lang,
                                        "source": r.source}) + "\n")

        ds = read_docs_jsonl(str(tmp_path))
        validate_schema(ds, CURATION_DOCS_SCHEMA)
        got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
        exp = df.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp[got.columns])

        def stats(d):
            r = lang_mix_weights(d, "lang", "text")
            if hasattr(r, "to_pandas"):
                r = r.to_pandas()
            return r.sort_values("lang").reset_index(drop=True)

        pq_ds = read_parquet(f"{SF}/documents.parquet",
                             columns=["doc_id", "text", "lang", "source"])
        pd.testing.assert_frame_equal(stats(ds), stats(pq_ds))

    def test_docs_jsonl_missing_field(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"id": 1, "text": "x"}\n')
        with pytest.raises(Exception, match="missing field"):
            read_docs_jsonl(str(tmp_path)).materialize()

    def test_validate_schema(self):
        ds = read_parquet(f"{SF}/region.parquet")
        good = pa.schema([("r_regionkey", pa.int32()), ("r_name", pa.string())])
        validate_schema(ds, good)
        bad = pa.schema([("r_regionkey", pa.int64()), ("r_name", pa.string())])
        with pytest.raises(ValueError, match="r_regionkey"):
            validate_schema(ds, bad)
        with pytest.raises(ValueError, match="names"):
            validate_schema(ds, pa.schema([("x", pa.int32())]))


class TestWindows:
    def test_session_stats_matches_pandas(self):
        ev = pd.DataFrame({
            "user_id": [1, 1, 1, 2, 2],
            "ts": pd.to_datetime([
                "2024-01-01 10:00", "2024-01-01 10:10",  # same session
                "2024-01-01 12:00",                       # new session (gap > 30m)
                "2024-01-01 09:00", "2024-01-02 09:00",  # two sessions
            ]).astype("datetime64[us]"),
        })
        out = {r["user_id"]: (r["n_sessions"], r["n_events"])
               for r in session_stats(rd.from_pandas(ev)).take_all()}
        assert out == {1: (2, 3), 2: (2, 2)}

    def test_sliding_counts_overlap(self):
        ev = pd.DataFrame({
            "ts": pd.to_datetime(["2024-01-01 10:30"]).astype("datetime64[us]"),
            "event_type": ["click"],
        })
        rows = sliding_counts(rd.from_pandas(ev), window_minutes=120,
                              slide_minutes=60).take_all()
        # a single event must appear in exactly window/slide = 2 windows
        assert sorted(r["window_start"] for r in rows) == [
            "2024-01-01 09:00:00", "2024-01-01 10:00:00",
        ]
        assert all(r["n"] == 1 for r in rows)


class TestReadMediaFiles:
    def test_real_file_roundtrip(self, tmp_path):
        """read_binary_files → (media_id, kind, payload) with extension
        dispatch; features computed by the actor-pool stage."""
        from docprocai_service_ray.stages.multimodal import (
            extract_media_features,
            read_media_files,
        )

        (tmp_path / "a.png").write_bytes(b"fake-image-bytes")
        (tmp_path / "b.mp4").write_bytes(b"fake-video-bytes-longer")
        (tmp_path / "c.dat").write_bytes(b"unknown")
        rows = {
            r["media_id"].rsplit("/", 1)[-1]: r
            for r in extract_media_features(
                read_media_files(str(tmp_path)), feature_dim=8
            ).take_all()
        }
        assert rows["a.png"]["kind"] == "image" and rows["a.png"]["n_frames"] == 1
        assert rows["b.mp4"]["kind"] == "video" and rows["b.mp4"]["n_frames"] > 1
        assert rows["c.dat"]["kind"] == "binary"
        assert rows["a.png"]["n_bytes"] == 16
