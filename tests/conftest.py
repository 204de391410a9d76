"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pandas as pd
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield
    ray.shutdown()


def _with_empty_blocks(frame: pd.DataFrame):
    """``frame``'s rows behind a leading empty typed block, a filter's
    empty output and a column-less empty block."""
    import ray.data as rd

    ds = rd.from_pandas([frame.iloc[:0], frame])
    column_less = ds.map_batches(lambda df: df.iloc[:0][[]], batch_format="pandas")
    return ds.union(ds.filter(lambda r: False), column_less)


@pytest.fixture(scope="session")
def with_empty_blocks():
    """Builds a Dataset of a frame's rows plus the three kinds of empty
    block Ray Data hands around (see ``_with_empty_blocks``)."""
    return _with_empty_blocks


@pytest.fixture(scope="session")
def small_corpus():
    """300 deterministic synthetic pages + alias dict (driver-side lists)."""
    from docprocai_service_ray.sources.webgen import alias_dict_table, gen_page

    pages = [gen_page(42, r) for r in range(300)]
    alias = alias_dict_table(42, 64)
    return pages, alias


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    """300-page synthetic web_pages corpus as parquet."""
    import os

    import pyarrow.parquet as pq

    from docprocai_service_ray.sources.webgen import pages_table

    p = tmp_path_factory.mktemp("corpus") / "web_pages"
    os.makedirs(p, exist_ok=True)
    pq.write_table(pages_table(42, list(range(300))), str(p / "part-0.parquet"))
    return str(p)


@pytest.fixture(scope="session")
def kg_result(corpus_path, tmp_path_factory):
    """Full checkpointed KG pipeline over the 300-page corpus."""
    from docprocai_service_ray.config import KGConfig
    from docprocai_service_ray.pipelines.kg import run_kg
    from docprocai_service_ray.sources.webgen import alias_dict_table

    out = str(tmp_path_factory.mktemp("kgout"))
    cfg = KGConfig()
    res = run_kg(corpus_path, alias_dict_table(42, cfg.embedding_dim), cfg,
                 out_dir=out, with_mentions=True)
    return res, out, cfg


@pytest.fixture(scope="session")
def oracle_result(small_corpus):
    from docprocai_service_ray.config import KGConfig
    from docprocai_service_ray.oracle.scalar import run_oracle

    pages, alias = small_corpus
    return run_oracle(pages, alias, KGConfig())
