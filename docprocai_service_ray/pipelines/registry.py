"""The query registry: every driver query is declared once, next to its
function, together with the oracle the correctness check compares it to.

- ``sql=``: a DuckDB twin over the same tables, either a string or a
  zero-argument callable that builds the string when ``oracle_sql()`` runs;
- ``golden="<why no SQL twin>"``: the oracle reads back the frozen output
  ``goldens/sf0.01/<name>.parquet`` (written by scripts/make_goldens.py).

Declaring a name twice, or with no oracle, raises. Declaring a query starts
no Ray work, and neither do ``queries()`` and ``oracle_sql()``.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
from collections.abc import Callable
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN_DIR = os.path.join(ROOT, "goldens", "sf0.01")
# the modules that declare queries, in declaration order
FAMILIES = ("benchqueries", "textqueries", "curationqueries", "vectorqueries",
            "webqueries", "mediaqueries")


class Registry:
    def __init__(self) -> None:
        self.fns: dict[str, Callable[[str], Any]] = {}
        self.oracles: dict[str, str | Callable[[], str]] = {}
        self.goldens: dict[str, str] = {}  # name -> why it has no SQL twin

    def register(self, name: str, fn=None, *, sql=None, golden: str | None = None):
        """Declare ``name``; without ``fn`` this returns a decorator."""
        if fn is None:
            return lambda f: self.register(name, f, sql=sql, golden=golden)
        if name in self.fns:
            raise ValueError(f"query {name!r} is declared twice")
        if (sql is None) == (golden is None):
            raise ValueError(f"query {name!r} needs one oracle: sql= or golden=")
        if golden is not None:
            self.goldens[name] = golden
            sql = f"SELECT * FROM read_parquet('{os.path.join(GOLDEN_DIR, name)}.parquet')"
        self.fns[name], self.oracles[name] = fn, sql
        return fn

    def queries(self, recorded_dir: str) -> dict[str, Callable[[str], Any]]:
        """Names without a row in any ``CORRECTNESS_r*.json`` under
        ``recorded_dir`` first, then the rest; each part in declaration order."""
        recorded: set[str] = set()
        for path in glob.glob(os.path.join(recorded_dir, "CORRECTNESS_r*.json")):
            with open(path) as f:
                recorded.update(json.load(f))
        return {n: self.fns[n] for n in sorted(self.fns, key=lambda n: n in recorded)}

    def oracle_sql(self) -> dict[str, str]:
        return {n: s() if callable(s) else s for n, s in self.oracles.items()}


REGISTRY = Registry()
register = REGISTRY.register


def loaded() -> Registry:
    """The registry with every family module imported."""
    for family in FAMILIES:
        importlib.import_module(f"{__package__}.{family}")
    return REGISTRY
