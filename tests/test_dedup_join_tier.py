"""Winners-too-large-to-broadcast url-dedup tier (VERDICT r2 #2): when the
winner set exceeds extract.WINNERS_BROADCAST_MAX, both dedup paths must
switch to the distributed hash-join filter and produce IDENTICAL output to
the broadcast path — forced here via ``state.tier.forced``. The middle
tier (distributed winners, broadcast filter) is reached by lowering
``driver_dedup_max`` instead."""

from __future__ import annotations

import dataclasses
import datetime as dt

import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.config import KGConfig
from docprocai_service_ray.sources.webgen import WEB_PAGES_SCHEMA
from docprocai_service_ray.stages.extract import (
    DOCS_SCHEMA,
    build_docs,
    dedup_urls,
    drop_empty,
    extract_docs,
)
from docprocai_service_ray.state.tier import forced


def _ts(minute: int) -> dt.datetime:
    return dt.datetime(2024, 1, 1, 12, minute, 0)


def _pages_ds():
    rows = []
    # 30 duplicated urls (latest wins), 5 with warc_ts ties (hash tiebreak),
    # 3 with byte-identical full ties, 1 whose LATEST capture extracts
    # empty, plus 20 singleton urls
    for i in range(30):
        rows.append((f"https://dup{i}.test/", _ts(0),
                     f"<html><body><p>old version {i}</p></body></html>".encode(), "en"))
        rows.append((f"https://dup{i}.test/", _ts(5),
                     f"<html><body><p>new version {i}</p></body></html>".encode(), "en"))
    for i in range(5):
        rows.append((f"https://tie{i}.test/", _ts(1),
                     f"<html><body><p>tie variant A {i}</p></body></html>".encode(), "en"))
        rows.append((f"https://tie{i}.test/", _ts(1),
                     f"<html><body><p>tie variant B {i}</p></body></html>".encode(), "en"))
    for i in range(3):
        html = f"<html><body><p>identical {i}</p></body></html>".encode()
        rows.append((f"https://same{i}.test/", _ts(2), html, "en"))
        rows.append((f"https://same{i}.test/", _ts(2), html, "en"))
    rows.append(("https://gone.test/", _ts(0),
                 b"<html><body><p>had text once</p></body></html>", "en"))
    rows.append(("https://gone.test/", _ts(9),
                 b"<html><script>empty()</script></html>", "en"))
    for i in range(20):
        rows.append((f"https://single{i}.test/", _ts(3),
                     f"<html><body><p>solo page {i}</p></body></html>".encode(), "en"))
    return rd.from_arrow(
        pa.table(
            {
                "url": [r[0] for r in rows],
                "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "html": pa.array([r[2] for r in rows], pa.binary()),
                "lang": [r[3] for r in rows],
            }
        )
    )


def _docs_key(ds):
    return sorted(
        (r["url"], r["warc_ts"], r["content_hash"], r["text"])
        for r in ds.take_all()
    )


def test_meta_join_tier_matches_broadcast(ray_session):
    base = _docs_key(build_docs(_pages_ds(), KGConfig()))
    with forced("distributed"):
        got = _docs_key(build_docs(_pages_ds().repartition(7), KGConfig()))
    assert got == base and len(base) == 30 + 5 + 3 + 20


def test_docs_join_tier_matches_broadcast(ray_session):
    docs_raw = extract_docs(_pages_ds(), KGConfig()).materialize()
    base = _docs_key(drop_empty(dedup_urls(docs_raw, KGConfig())))
    with forced("distributed"):
        got = _docs_key(drop_empty(dedup_urls(docs_raw.repartition(7), KGConfig())))
    assert got == base and len(base) == 30 + 5 + 3 + 20


def _from_pages(pages, cfg):
    return build_docs(pages, cfg)


def _from_docs(pages, cfg):
    return drop_empty(dedup_urls(extract_docs(pages, cfg).materialize(), cfg))


@pytest.mark.parametrize("path", [_from_pages, _from_docs],
                         ids=["build_docs", "dedup_urls"])
def test_broadcast_winners_tier_matches_driver(ray_session, path):
    """``driver_dedup_max=0``: winners come from the distributed
    ``partition_reduce`` and are broadcast, not collected from the
    projection on the driver."""
    base = _docs_key(path(_pages_ds(), KGConfig()))
    cfg = dataclasses.replace(KGConfig(), driver_dedup_max=0)
    got = _docs_key(path(_pages_ds().repartition(7), cfg))
    assert got == base and len(base) == 30 + 5 + 3 + 20


@pytest.mark.parametrize("tier", ["driver", "distributed"])
@pytest.mark.parametrize("dedup, schema", [(dedup_urls, DOCS_SCHEMA),
                                           (build_docs, WEB_PAGES_SCHEMA)],
                         ids=["dedup_urls", "build_docs"])
def test_empty_input_keeps_docs_schema(ray_session, tier, dedup, schema):
    """No rows in → no rows out, typed like any docs table, on both tiers."""
    with forced(tier):
        out = dedup(rd.from_arrow(schema.empty_table()), KGConfig()).materialize()
    assert out.count() == 0
    assert list(out.schema().names) == DOCS_SCHEMA.names
    assert list(out.schema().types) == DOCS_SCHEMA.types
