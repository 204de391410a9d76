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


def _plan_ops(ds) -> list[tuple[str, int | None]]:
    """(name, estimated block count) of each operator of ``ds``'s logical
    plan, walked as a tree: an input reached along two paths is listed
    (and executed) twice."""
    ops, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append((op.name, op.estimated_num_outputs()))
        stack.extend(op.input_dependencies)
    return ops


def _docs_join_tier(cfg):
    docs_raw = extract_docs(_pages_ds(), cfg).materialize()
    return drop_empty(dedup_urls(docs_raw.repartition(7), cfg))


@pytest.mark.parametrize("run", [
    lambda cfg: build_docs(_pages_ds().repartition(7), cfg), _docs_join_tier],
    ids=["build_docs", "dedup_urls"])
def test_join_tier_runs_the_join_once(ray_session, run):
    """One hash join (one co-partition ``Union``) over one read of the
    input (its one ``repartition(7)``; the join's output cap is another
    ``Repartition``) — not one per tie/no-tie branch."""
    with forced("distributed"):
        ops = _plan_ops(run(KGConfig()))
    assert ops.count(("Repartition", 7)) == 1
    assert [name for name, _ in ops].count("Union") == 1


def test_build_docs_filters_languages_once(ray_session, monkeypatch):
    """With ``filter_langs`` set, ``build_docs`` builds one language filter
    and gives the extracted-docs path's output."""
    from docprocai_service_ray.stages import extract

    de = rd.from_arrow(pa.table({
        # a newer "de" capture of a duplicated url: filtered out before
        # url-dedup, so the url's "en" capture still wins
        "url": ["https://dup0.test/", "https://de-only.test/"],
        "warc_ts": pa.array([_ts(9), _ts(1)], pa.timestamp("us")),
        "html": pa.array([b"<html><body><p>neu</p></body></html>",
                          b"<html><body><p>nur deutsch</p></body></html>"],
                         pa.binary()),
        "lang": ["de", "de"],
    }))
    cfg = dataclasses.replace(KGConfig(), filter_langs=("en",))
    want = _docs_key(_from_docs(_pages_ds().union(de), cfg))
    calls = []
    real = extract.filter_langs
    monkeypatch.setattr(extract, "filter_langs",
                        lambda ds, c: calls.append(c) or real(ds, c))
    got = _docs_key(build_docs(_pages_ds().union(de), cfg))
    assert len(calls) == 1
    assert got == want and len(got) == 30 + 5 + 3 + 20


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
