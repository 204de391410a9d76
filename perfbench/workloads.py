"""The benchmark workloads.

Each workload builds its inputs and reference outputs from the seed in
``prepare`` (set-up, untimed by ``wall_s``), warms the program up in
``warm_up``, and times one pass of the program in ``run_pass``; the pass's
output is checked against the reference after the clock stops.

- ``kg_stream``: streaming ``run_kg(..., with_link_graph=True)``, triples
  written by ``state.manifest.write_stage`` as bucket-partitioned Parquet.
  At 600 pages the pass is mostly the stage chain's per-pass Ray execution
  and exchange cost; the per-page kernels are a small share (README.md).
- ``exchange_queries``: a sweep of registry queries dominated by grouped
  exchanges and joins, with no HTML parsing.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time

import pyarrow.dataset as pads

from . import inputs

PKG = "docprocai_service_ray"
STATE_TARGETS = (
    (f"{PKG}.state.groupby", "partition_reduce"),
    (f"{PKG}.state.groupby", "distinct_rows"),
    (f"{PKG}.state.groupby", "collect_pandas"),
    (f"{PKG}.state.joins", "hash_join"),
    (f"{PKG}.state.manifest", "write_stage"),
)


@dataclasses.dataclass
class PassResult:
    wall_s: float
    records: int
    attempted: int
    failed: int
    errors: list[str] = dataclasses.field(default_factory=list)
    op_wall_s: dict[str, float] = dataclasses.field(default_factory=dict)
    surfaces_per_entity: float = 0.0


def _triple_rows(rows) -> list[tuple]:
    """Order-free comparable form of canonical triples, provenance included."""
    return sorted(
        (r["subject_id"], r["pred"], r["object_id"], int(r["weight"]),
         int(r["prov_overflow"]),
         tuple(sorted((p["url"], int(p["sent_id"])) for p in r["prov"])))
        for r in rows)


def _read_triples(path: str) -> list[dict]:
    cols = ["subject_id", "pred", "object_id", "weight", "prov_overflow", "prov"]
    return pads.dataset(path, partitioning="hive").to_table(columns=cols).to_pylist()


def _write_triples(triples_ds, out_dir: str) -> str:
    """The pipeline's own final write: subject-bucket partitioned Parquet
    plus a manifest row, as checkpointed ``run_kg`` writes it."""
    from docprocai_service_ray.state.manifest import write_stage

    return write_stage(triples_ds, out_dir, "triples",
                       extra={"partitioned_by": "bucket"},
                       write_kwargs={"partition_cols": ["bucket"]})


def _surfaces_per_entity(entity_map_ds) -> float:
    df = entity_map_ds.to_pandas()
    return len(df) / max(1, df["canonical_id"].nunique())


class KGStream:
    name = "kg_stream"
    ops_per_pass = 1
    PAGES = 600
    WARM_PAGES = 100
    stage_targets = (
        (f"{PKG}.pipelines.kg", "read_web_pages"),
        (f"{PKG}.stages.extract", "extract_docs"),
        (f"{PKG}.stages.extract", "dedup_urls"),
        (f"{PKG}.stages.triple_extract", "build_triples_raw_fused"),
        (f"{PKG}.stages.linkgraph", "url_links_from_docs"),
        (f"{PKG}.stages.linkgraph", "host_edges_from_url_links"),
        (f"{PKG}.stages.linkgraph", "host_pagerank"),
        (f"{PKG}.stages.canonicalize", "build_entity_map"),
        (f"{PKG}.stages.materialize", "build_triples_auto"),
    )

    def __init__(self, work: str, seed: int):
        from docprocai_service_ray.config import KGConfig

        self.work, self.seed = work, seed
        self.cfg = KGConfig()

    def prepare(self) -> None:
        import duckdb

        from docprocai_service_ray.oracle.scalar import run_oracle
        from docprocai_service_ray.sources.webgen import alias_dict_table, gen_page
        from docprocai_service_ray.stages.linkgraph import linkgraph_sql

        self.alias = alias_dict_table(self.seed, self.cfg.embedding_dim)
        pages = [gen_page(self.seed, r) for r in range(self.PAGES)]
        self.pages_dir = inputs.write_pages(os.path.join(self.work, "pages"), pages)
        self.want = _triple_rows(run_oracle(pages, self.alias, self.cfg)["triples"])
        self.want_edges = duckdb.sql(linkgraph_sql(
            os.path.join(self.pages_dir, "*.parquet"))).df()
        self.records = len(pages)
        self._n = 0

    def warm_up(self) -> None:
        """The same calls over a small corpus of further rows: workers
        import the package and actor pools start once before timing."""
        from docprocai_service_ray.pipelines.kg import run_kg
        from docprocai_service_ray.sources.webgen import gen_page

        warm = inputs.write_pages(os.path.join(self.work, "warm"), [
            gen_page(self.seed, r) for r in range(self.PAGES, self.PAGES + self.WARM_PAGES)])
        out = run_kg(warm, self.alias, self.cfg, with_link_graph=True)
        _write_triples(out["triples"], os.path.join(self.work, "warm_kg"))
        out["host_ranks"].to_pandas()

    def run_pass(self, tracer) -> PassResult:
        from docprocai_service_ray.pipelines.kg import run_kg

        self._n += 1
        out_dir = os.path.join(self.work, f"kg_{self._n}")
        t0 = time.perf_counter()
        out = run_kg(self.pages_dir, self.alias, self.cfg, with_link_graph=True)
        if tracer is None:
            path = _write_triples(out["triples"], out_dir)
        else:
            with tracer.span("stages.write_triples") as sp:
                path = _write_triples(out["triples"], out_dir)
            written = pads.dataset(path, partitioning="hive")
            sp.attrs["rows_in"] = sp.attrs["rows_out"] = written.count_rows()
            sp.attrs["bytes_out"] = sum(os.path.getsize(f) for f in written.files)
        ranks = out["host_ranks"].to_pandas()
        edges = out["host_edges"].to_pandas()
        wall = time.perf_counter() - t0

        errors: list[str] = []
        failed = 0
        got = _read_triples(path)
        if _triple_rows(got) != self.want:
            errors.append(f"triples differ from the oracle ({len(got)} rows, "
                          f"want {len(self.want)})")
            failed = 1
        cols = ["src_host", "dst_host", "n_links"]
        got_e = edges[cols].sort_values(cols[:2]).reset_index(drop=True)
        want_e = self.want_edges[cols].sort_values(cols[:2]).reset_index(drop=True)
        if not got_e.astype(str).equals(want_e.astype(str)):
            errors.append("host edges differ from the SQL twin")
            failed = 1
        if len(ranks) == 0 or not ranks["rank"].notna().all():
            errors.append("host ranks empty or NaN")
            failed = 1
        res = PassResult(wall, self.records, 1, failed, errors)
        if tracer is not None:
            res.surfaces_per_entity = _surfaces_per_entity(out["entity_map"])
        shutil.rmtree(out_dir, ignore_errors=True)
        return res


def _frame_diff(got, want) -> str | None:
    """None when two query results agree under ``check_correctness``'s rule
    (sorted columns and rows, floats to 6 dp), except that a float may be
    off by one unit in the sixth decimal: the query engine and DuckDB round
    a tie there to different sides (1258/1280 gives 0.982812 and 0.982813),
    which that rule's tolerance of exactly 1e-6 rejects."""
    import pandas as pd
    from check_correctness import _canon

    if len(got) != len(want) or sorted(got.columns) != sorted(want.columns):
        return f"{len(got)} rows {sorted(got.columns)}, want {len(want)} rows {sorted(want.columns)}"
    try:
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False,
                                      check_exact=False, atol=1.5e-6, rtol=0)
    except AssertionError as e:
        return str(e).splitlines()[0]
    return None


class ExchangeQueries:
    name = "exchange_queries"
    DOCS = 500
    ORDERS = 15_000
    # query -> the tables it reads
    QUERIES = {
        "bigram_bits_by_source": ("documents",),
        "line_dedup_docs": ("documents",),
        "distinct_ngrams_by_source": ("documents",),
        "exact_dedup_docs": ("documents",),
        "orders_lineitem_join": ("orders", "lineitem"),
    }
    ops_per_pass = len(QUERIES)
    stage_targets = ()

    def __init__(self, work: str, seed: int):
        from docprocai_service_ray.config import KGConfig

        self.work, self.seed = work, seed
        self.cfg = KGConfig()

    def prepare(self) -> None:
        import duckdb

        import __ray_entry__ as entry

        self.sf_dir = inputs.write_tables(os.path.join(self.work, "sf"), self.seed,
                                          self.DOCS, self.ORDERS)
        con = duckdb.connect()
        rows = {}
        for t in ("documents", "orders", "lineitem"):
            path = os.path.join(self.sf_dir, f"{t}.parquet")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
            rows[t] = con.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0]
        sql = entry.oracle_sql()
        self.want = {q: con.execute(sql[q]).fetchdf() for q in self.QUERIES}
        con.close()
        self.fns = {q: entry.queries()[q] for q in self.QUERIES}
        self.records = sum(rows[t] for ts in self.QUERIES.values() for t in ts)

    def warm_up(self) -> None:
        """The same sweep over tables a tenth the size."""
        warm = inputs.write_tables(os.path.join(self.work, "warm_sf"), self.seed + 1,
                                   self.DOCS // 10, self.ORDERS // 10)
        for fn in self.fns.values():
            fn(warm)

    def run_pass(self, tracer) -> PassResult:
        from check_correctness import _to_pandas

        got, op_wall = {}, {}
        errors: list[str] = []
        t0 = time.perf_counter()
        for q, fn in self.fns.items():
            t = time.perf_counter()
            try:
                if tracer is None:
                    got[q] = _to_pandas(fn(self.sf_dir))
                else:
                    with tracer.span(f"pipelines.query.{q}"):
                        got[q] = _to_pandas(fn(self.sf_dir))
            except Exception as e:  # noqa: BLE001 - a raising query is a failed operation
                errors.append(f"{q}: {type(e).__name__}: {e}"[:300])
            op_wall[q] = time.perf_counter() - t
        wall = time.perf_counter() - t0

        failed = len(errors)
        for q, df in got.items():
            diff = _frame_diff(df, self.want[q])
            if diff:
                errors.append(f"{q}: differs from its SQL twin: {diff}"[:300])
                failed += 1
        return PassResult(wall, self.records, len(self.fns), failed, errors, op_wall)


WORKLOADS = {w.name: w for w in (KGStream, ExchangeQueries)}
