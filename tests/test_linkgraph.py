"""Web link-graph extraction (stages/linkgraph.py): href semantics,
SQL-oracle parity on the synthetic corpus, parallelism invariance, and
host PageRank sanity (the heavy SQL cross-check at sf0.01 runs via
tests/test_queries.py's auto-parameterization)."""

from __future__ import annotations

import datetime

import duckdb
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.sources.webgen import WEB_PAGES_SCHEMA, pages_table
from docprocai_service_ray.stages.linkgraph import (
    host_link_edges,
    host_pagerank,
    link_partial_arrays,
    linkgraph_sql,
    top_linked_hosts,
)

TS = datetime.datetime(2025, 1, 1)


def _pages_ds(rows: list[tuple[str, bytes]], blocks: int = 1):
    t = pa.Table.from_pydict(
        {
            "url": [u for u, _ in rows],
            "warc_ts": [TS] * len(rows),
            "html": [h for _, h in rows],
            "text": [None] * len(rows),
            "lang": ["en"] * len(rows),
        },
        schema=WEB_PAGES_SCHEMA,
    )
    return rd.from_arrow(t).repartition(blocks)


class TestExtractSemantics:
    def test_absolute_relative_and_dropped_schemes(self):
        html = (
            "<a href='https://siteB.example/x'>b</a>"
            '<a href="https://siteC.example/y">c</a>'  # double quotes too
            "<a href='/about'>rel</a>"
            "<a href='mailto:x@y.z'>m</a>"
            "<a href='javascript:void(0)'>j</a>"
            "<a href='https://siteB.example/z'>b2</a>"
        )
        src, dst, n = link_partial_arrays(["https://siteA.example/p/1"], [html])
        # absolute hrefs count per dst host; /about resolves to the page's
        # own host and drops as a self link; mailto/javascript dropped
        assert src.to_pylist() == ["siteA.example"]
        assert dst.to_pylist() == [["siteB.example", "siteC.example"]]
        assert n.to_pylist() == [[2, 1]]

    def test_invalid_utf8_and_empty_html_survive(self):
        rows = [
            ("https://a.example/1", b"\xff\xfe<a href='https://b.example/z'>x</a>\x80"),
            ("https://a.example/2", b""),
            ("https://a.example/3", None),
        ]
        got = host_link_edges(_pages_ds(rows)).to_pandas()
        assert got.to_dict("records") == [
            {"src_host": "a.example", "dst_host": "b.example", "n_links": 1}
        ]

    def test_cross_host_edges_drop_self_links(self):
        rows = [
            ("https://a.example/1", b"<a href='/nav'>n</a><a href='https://a.example/self'>s</a>"
             b"<a href='https://b.example/t'>t</a><a href='https://b.example/u'>u</a>"),
        ]
        edges = host_link_edges(_pages_ds(rows)).to_pandas()
        assert edges.to_dict("records") == [
            {"src_host": "a.example", "dst_host": "b.example", "n_links": 2}
        ]


class TestCorpusParity:
    @pytest.fixture(scope="class")
    def corpus_parquet(self, tmp_path_factory):
        import pyarrow.parquet as pq

        d = tmp_path_factory.mktemp("linkcorpus")
        t = pages_table(42, list(range(400)))
        pq.write_table(t, str(d / "pages.parquet"))
        return str(d / "pages.parquet")

    def test_edges_match_duckdb(self, corpus_parquet):
        pages = rd.read_parquet(corpus_parquet, columns=["url", "html"])
        got = (
            host_link_edges(pages)
            .to_pandas()
            .sort_values(["src_host", "dst_host"])
            .reset_index(drop=True)
        )
        want = (
            duckdb.connect()
            .execute(linkgraph_sql(corpus_parquet))
            .fetchdf()
            .sort_values(["src_host", "dst_host"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))

    def test_parallelism_invariance(self, corpus_parquet):
        pages = rd.read_parquet(corpus_parquet, columns=["url", "html"])
        a = host_link_edges(pages.repartition(1)).to_pandas()
        b = host_link_edges(pages.repartition(13)).to_pandas()
        key = ["src_host", "dst_host"]
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            b.sort_values(key).reset_index(drop=True),
        )

    def test_host_pagerank_hubs_and_mass(self, corpus_parquet):
        pages = rd.read_parquet(corpus_parquet, columns=["url", "html"])
        pr = host_pagerank(pages, iters=20).to_pandas()
        assert abs(pr["rank"].sum() - 1.0) < 1e-6
        top5 = set(pr.nlargest(5, "rank")["host"])
        # the generator's planted hub sites must dominate the rank head
        hubs = {f"site{s}.example" for s in (7, 48, 89, 130, 171)}
        assert len(top5 & hubs) >= 4

    def test_host_hits_authorities_and_norms(self, corpus_parquet):
        from docprocai_service_ray.stages.linkgraph import host_hits

        pages = rd.read_parquet(corpus_parquet, columns=["url", "html"])
        sc = host_hits(pages, iters=20).to_pandas()
        # L2-normalized score vectors
        assert abs((sc["hub"] ** 2).sum() - 1.0) < 1e-6
        assert abs((sc["authority"] ** 2).sum() - 1.0) < 1e-6
        # the generator's planted hub sites are heavily linked TO — in
        # HITS terms they are the AUTHORITY head (PageRank calls the same
        # set its rank head); ordinary sites that link out to them form
        # the hub side
        cited = {f"site{s}.example" for s in (7, 48, 89, 130, 171)}
        top5_auth = set(sc.nlargest(5, "authority")["host"])
        assert len(top5_auth & cited) >= 4

    def test_top_linked_hosts_ranked_by_inlinks(self, corpus_parquet):
        pages = rd.read_parquet(corpus_parquet, columns=["url", "html"])
        top = top_linked_hosts(pages, 5).to_pandas()
        assert len(top) == 5
        assert list(top["in_links"]) == sorted(top["in_links"], reverse=True)


class TestAnchorTerms:
    def test_cross_host_tokenized_counts(self):
        from docprocai_service_ray.stages.linkgraph import anchor_text_terms

        html = (
            b"<a href='/about'>Same Host Nav</a>"
            b"<a href='https://b.example/x'>Great Site B</a>"
            b"<a href='https://b.example/y'>site b again</a>"
            b"<a href='mailto:x@y'>mail</a>"
        )
        ds = _pages_ds([("https://a.example/1", html)])
        got = anchor_text_terms(ds).to_pandas()
        counts = {(r.dst_host, r.term): r.n for r in got.itertuples()}
        assert counts == {
            ("b.example", "great"): 1,
            ("b.example", "site"): 2,
            ("b.example", "b"): 2,
            ("b.example", "again"): 1,
        }

    def test_hub_anchor_terms_on_corpus(self, tmp_path):
        import pyarrow.parquet as pq

        from docprocai_service_ray.sources.webgen import pages_table
        from docprocai_service_ray.stages.linkgraph import anchor_text_terms

        p = str(tmp_path / "pages.parquet")
        pq.write_table(pages_table(42, list(range(200))), p)
        got = anchor_text_terms(rd.read_parquet(p, columns=["url", "html"])).to_pandas()
        # generator anchors read "site N" — the term 'site' must dominate
        by_term = got.groupby("term")["n"].sum()
        assert by_term.idxmax() == "site"


class TestLinkGraphStage:
    def test_checkpointed_stage_matches_direct(self, tmp_path):
        import os

        import pyarrow.parquet as pq

        from docprocai_service_ray.config import KGConfig
        from docprocai_service_ray.pipelines.kg import run_kg
        from docprocai_service_ray.sources.webgen import alias_dict_table, pages_table
        from docprocai_service_ray.state.manifest import is_stage_done

        cfg = KGConfig()
        pages_dir = str(tmp_path / "pages")
        os.makedirs(pages_dir)
        pq.write_table(pages_table(42, list(range(300))),
                       os.path.join(pages_dir, "p.parquet"))
        out = str(tmp_path / "kg")
        res = run_kg(pages_dir, alias_dict_table(42, 64), cfg, out_dir=out,
                     with_link_graph=True)
        assert is_stage_done(out, "host_edges")
        assert is_stage_done(out, "host_ranks")

        direct = host_link_edges(
            rd.read_parquet(pages_dir, columns=["url", "html"])).to_pandas()
        got = res["host_edges"].to_pandas()
        key = ["src_host", "dst_host"]
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True)[key + ["n_links"]],
            direct.sort_values(key).reset_index(drop=True)[key + ["n_links"]],
        )
        ranks = res["host_ranks"].to_pandas()
        direct_pr = host_pagerank(
            rd.read_parquet(pages_dir, columns=["url", "html"])).to_pandas()
        pd.testing.assert_frame_equal(
            ranks.sort_values("host").reset_index(drop=True),
            direct_pr.sort_values("host").reset_index(drop=True),
        )

        # resume: a second run must reuse both stages (and stay equal)
        res2 = run_kg(pages_dir, alias_dict_table(42, 64), cfg, out_dir=out,
                      with_link_graph=True)
        pd.testing.assert_frame_equal(
            res2["host_ranks"].to_pandas().sort_values("host").reset_index(drop=True),
            ranks.sort_values("host").reset_index(drop=True),
        )

    def test_ingest_shard_keeps_link_graph_consistent(self, tmp_path):
        import os

        import pyarrow.parquet as pq

        from docprocai_service_ray.config import KGConfig
        from docprocai_service_ray.pipelines.kg import ingest_shard, run_kg
        from docprocai_service_ray.sources.webgen import alias_dict_table, pages_table

        cfg = KGConfig()
        old_dir = str(tmp_path / "old"); os.makedirs(old_dir)
        shard_dir = str(tmp_path / "shard"); os.makedirs(shard_dir)
        full_dir = str(tmp_path / "full"); os.makedirs(full_dir)
        pq.write_table(pages_table(42, list(range(200))),
                       os.path.join(old_dir, "p.parquet"))
        pq.write_table(pages_table(42, list(range(200, 300))),
                       os.path.join(shard_dir, "p.parquet"))
        pq.write_table(pages_table(42, list(range(300))),
                       os.path.join(full_dir, "p.parquet"))
        alias = alias_dict_table(42, 64)

        out = str(tmp_path / "kg_inc")
        run_kg(old_dir, alias, cfg, out_dir=out, with_link_graph=True)
        inc = ingest_shard(shard_dir, alias, cfg, out_dir=out)
        clean = run_kg(full_dir, alias, cfg, out_dir=str(tmp_path / "kg_clean"),
                       with_link_graph=True)

        key = ["src_host", "dst_host"]
        pd.testing.assert_frame_equal(
            inc["host_edges"].to_pandas().sort_values(key).reset_index(drop=True),
            clean["host_edges"].to_pandas().sort_values(key).reset_index(drop=True),
        )
        pd.testing.assert_frame_equal(
            inc["host_ranks"].to_pandas().sort_values("host").reset_index(drop=True),
            clean["host_ranks"].to_pandas().sort_values("host").reset_index(drop=True),
        )
