"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ray.init()/ray.shutdown().

- ``entry()``: flagship KG-construction pipeline over a deterministic
  synthetic 500-page web_pages corpus (the BASELINE.json input_hint shape);
  returns the canonical triples Dataset.
- ``queries()``: every query of the registry (pipelines/registry.py); each
  takes sf_dir. Queries with no row yet in any ``CORRECTNESS_r*.json``
  beside this module come first, so a run that samples a prefix records
  them.
- ``oracle_sql()``: an entry for EVERY query, as declared with it in the
  registry. SQL-expressible ops get real DuckDB SQL (identical column
  names); deterministic non-SQL ops (KG / LSH / ANN / media) are served as
  golden-parquet reads frozen at sf0.01 by scripts/make_goldens.py — the KG
  tables are certified against the independent scalar oracle before
  freezing.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

from docprocai_service_ray.pipelines import registry


def entry() -> Any:
    """Flagship pipeline at sf0.001 scale; driver checks rows >= 0."""
    from docprocai_service_ray.pipelines.webqueries import _kg_run

    res = _kg_run("sf0.001")
    return res["triples"].select_columns(["subject_id", "pred", "object_id", "weight"])


def queries() -> dict[str, Callable[[str], Any]]:
    return registry.loaded().queries(os.path.dirname(os.path.abspath(__file__)))


def oracle_sql() -> dict[str, str]:
    return registry.loaded().oracle_sql()
