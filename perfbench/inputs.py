"""Seeded benchmark inputs.

Every input is a pure function of the run's seed, written under the
benchmark's work directory inside the checkout:

- ``web_pages`` corpora come from the package's own generator
  (``sources.webgen``); the seed picks the corpus, the url space and the
  entity inventory.
- the ``documents``/``orders``/``lineitem`` tables mirror the schema of the
  sf-scaled test tables the query registry reads (a 31-word vocabulary,
  20 sources, 5 languages; TPC-H-shaped orders and line items).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = ("a the row key agg scan slow fast table value part hash merge batch "
         "spark line sort window data column join small customer query order "
         "group vector filter stream big").split()
LANGS = ["en"] * 3 + ["zh", "es", "de", "fr"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]


def documents(seed: int, n_docs: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    n_words = rng.integers(10, 80, n_docs)
    words = rng.integers(0, len(VOCAB), int(n_words.sum()))
    bounds = np.concatenate([[0], np.cumsum(n_words)])
    text = [" ".join(VOCAB[w] for w in words[bounds[i]:bounds[i + 1]])
            for i in range(n_docs)]
    # exact duplicates so the dedup queries have copies to collapse
    dup = rng.random(n_docs) < 0.05
    src = rng.integers(0, n_docs, n_docs)
    text = [text[src[i]] if dup[i] else t for i, t in enumerate(text)]
    return pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": text,
        "lang": [LANGS[i] for i in rng.integers(0, len(LANGS), n_docs)],
        "source": [f"src{i % 20}" for i in range(n_docs)],
        "n_chars": np.array([len(t) for t in text], dtype=np.int64),
    })


def orders(seed: int, n_orders: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed + 1)
    day0 = np.datetime64("1995-01-01", "us")
    return pd.DataFrame({
        "o_orderkey": np.arange(n_orders, dtype=np.int64),
        "o_custkey": rng.integers(0, max(1, n_orders // 10), n_orders),
        "o_orderstatus": rng.choice(["F", "O", "P"], n_orders),
        "o_totalprice": np.round(rng.uniform(1000, 500000, n_orders), 2),
        "o_orderdate": day0 + rng.integers(0, 2400, n_orders) * np.timedelta64(1, "D"),
        "o_orderpriority": rng.choice(PRIORITIES, n_orders),
    })


def lineitem(seed: int, n_orders: int, per_order: int = 4) -> pd.DataFrame:
    rng = np.random.default_rng(seed + 2)
    n = n_orders * per_order
    day0 = np.datetime64("1995-01-02", "us")
    return pd.DataFrame({
        "l_orderkey": rng.integers(0, n_orders, n),
        "l_partkey": rng.integers(0, 2000, n),
        "l_suppkey": rng.integers(0, 100, n),
        "l_linenumber": rng.integers(1, 8, n).astype(np.int32),
        "l_quantity": rng.integers(1, 51, n).astype(np.float64),
        # whole dollars: price * (1 - discount) then has two decimals, so a
        # revenue sum rounded to cents never lands on a half-cent tie that
        # two summation orders could round to different sides
        "l_extendedprice": np.round(rng.uniform(900, 100000, n)),
        "l_discount": rng.integers(0, 11, n) / 100.0,
        "l_tax": rng.integers(0, 9, n) / 100.0,
        "l_returnflag": rng.choice(["A", "N", "R"], n),
        "l_linestatus": rng.choice(["F", "O"], n),
        "l_shipdate": day0 + rng.integers(0, 2500, n) * np.timedelta64(1, "D"),
    })


def write_pages(out_dir: str, pages: list[dict], rows_per_file: int = 250) -> str:
    """Write generated ``web_pages`` rows as Parquet files; returns ``out_dir``."""
    from docprocai_service_ray.sources.webgen import WEB_PAGES_SCHEMA

    os.makedirs(out_dir, exist_ok=True)
    for i in range(0, len(pages), rows_per_file):
        chunk = pages[i:i + rows_per_file]
        table = pa.Table.from_pydict(
            {c: [p[c] for p in chunk] for c in WEB_PAGES_SCHEMA.names},
            schema=WEB_PAGES_SCHEMA)
        pq.write_table(table, os.path.join(out_dir, f"part-{i // rows_per_file:05d}.parquet"))
    return out_dir


def write_tables(out_dir: str, seed: int, n_docs: int, n_orders: int) -> str:
    """Write the query tables as one Parquet file each; returns ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, df in (("documents", documents(seed, n_docs)),
                     ("orders", orders(seed, n_orders)),
                     ("lineitem", lineitem(seed, n_orders))):
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(out_dir, f"{name}.parquet"))
    return out_dir
