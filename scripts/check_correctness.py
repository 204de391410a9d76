#!/usr/bin/env python
"""Local full-registry correctness check — the driver's gate, in-repo.

The per-round driver samples 50 queries; this script runs EVERY
``__ray_entry__.queries()`` entry against its ``oracle_sql()`` twin at
sf0.01, comparing row count, schema (column names) and a value hash with
columns sorted by name and rows sorted by all columns — the same discipline
as the driver's CORRECTNESS_r{N}.json. Floats are rounded to 6 decimals
before hashing.

Usage:
    python scripts/check_correctness.py [sf_dir] [--only name1,name2]
Prints one flushed JSON object per query as it finishes ({"name", "ok",
"ray_rows", "oracle_rows"} plus "err" or "diff" when it fails), so a cut run
still leaves its rows, then a last line "N/M green"; exit 1 on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def _to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if s.dtype == object and len(s) and isinstance(
                s.dropna().iloc[0] if len(s.dropna()) else None, (list, np.ndarray)):
            def _jsonify(v):
                if v is None:
                    return None
                out = []
                for x in v:
                    if isinstance(x, (float, np.floating)):
                        out.append(round(float(x), 6))
                    elif isinstance(x, (int, np.integer)):
                        out.append(int(x))
                    else:
                        out.append(x)
                return json.dumps(out)

            df[c] = s.map(_jsonify)
        elif pd.api.types.is_float_dtype(s):
            df[c] = s.astype("float64").round(6)
        elif pd.api.types.is_datetime64_any_dtype(s):
            df[c] = s.astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(s):
            df[c] = s.astype("int64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(ray_df: pd.DataFrame, ora_df: pd.DataFrame) -> dict:
    out = {"rows_match": len(ray_df) == len(ora_df),
           "schema_match": sorted(ray_df.columns) == sorted(ora_df.columns),
           "hash_match": False, "ray_rows": len(ray_df),
           "oracle_rows": len(ora_df)}
    if out["rows_match"] and out["schema_match"]:
        a, b = _canon(ray_df), _canon(ora_df)
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                          check_exact=False, atol=1e-6, rtol=1e-6)
            out["hash_match"] = True
        except AssertionError as e:
            out["diff"] = str(e).splitlines()[0][:200]
    return out


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 and not sys.argv[1].startswith("--") \
        else "/root/testdata/sf0.01"
    only = None
    if "--only" in sys.argv:
        only = set(sys.argv[sys.argv.index("--only") + 1].split(","))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry

    qs, sqls = entry.queries(), entry.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    n_ok = n_run = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            r = compare(_to_pandas(fn(sf_dir)), con.execute(sqls[name]).fetchdf())
        except Exception as e:  # noqa: BLE001
            r = {"hash_match": False, "err": f"{type(e).__name__}: {e}"[:300]}
        ok = r["hash_match"]  # only set when rows and schema match too
        n_ok, n_run = n_ok + ok, n_run + 1
        print(json.dumps({"name": name, "ok": ok, **{
            k: r[k] for k in ("ray_rows", "oracle_rows", "err", "diff") if k in r}}),
            flush=True)
    print(f"{n_ok}/{n_run} green", flush=True)
    ray.shutdown()
    return 0 if n_ok == n_run else 1


if __name__ == "__main__":
    sys.exit(main())
