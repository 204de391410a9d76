"""The query registry (pipelines/registry.py): one declaration per name,
each with an oracle, a derived query order, and no Ray work on the way."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from docprocai_service_ray.pipelines import registry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _q(sf_dir):
    return sf_dir


def test_duplicate_name_raises():
    reg = registry.Registry()
    reg.register("a", _q, sql="SELECT 1")
    with pytest.raises(ValueError, match="declared twice"):
        reg.register("a", _q, golden="frozen")


@pytest.mark.parametrize("oracle", [{}, {"sql": "SELECT 1", "golden": "frozen"}])
def test_exactly_one_oracle_required(oracle):
    with pytest.raises(ValueError, match="one oracle"):
        registry.Registry().register("a", _q, **oracle)


def test_decorator_returns_the_function():
    reg = registry.Registry()
    assert reg.register("a", sql=lambda: "SELECT 2")(_q) is _q
    assert reg.fns == {"a": _q} and reg.oracle_sql() == {"a": "SELECT 2"}


def test_golden_oracle_reads_the_frozen_parquet():
    reg = registry.Registry()
    reg.register("a", _q, golden="no SQL twin")
    path = os.path.join(registry.GOLDEN_DIR, "a.parquet")
    assert reg.oracle_sql() == {"a": f"SELECT * FROM read_parquet('{path}')"}


def test_every_golden_parquet_exists():
    goldens = registry.loaded().goldens
    assert goldens
    for name, why in goldens.items():
        assert why.strip(), name
        assert os.path.isfile(os.path.join(ROOT, "goldens", "sf0.01", f"{name}.parquet")), name


def test_never_recorded_names_come_first(tmp_path):
    reg = registry.Registry()
    for name in "abcdef":
        reg.register(name, _q, sql="SELECT 1")
    (tmp_path / "CORRECTNESS_r01.json").write_text(json.dumps({"a": {}, "c": {}}))
    (tmp_path / "CORRECTNESS_r02.json").write_text(json.dumps({"d": {}}))
    (tmp_path / "CORRECTNESS_r03.json").write_text("{}")
    (tmp_path / "OTHER.json").write_text(json.dumps({"b": {}, "e": {}}))
    assert list(reg.queries(str(tmp_path))) == ["b", "e", "f", "a", "c", "d"]
    assert list(reg.queries(str(tmp_path / "none"))) == list("abcdef")


def test_driver_contract_starts_no_ray():
    code = ("import ray, __ray_entry__ as e; q = e.queries(); s = e.oracle_sql(); "
            "assert sorted(q) == sorted(s) and len(q) > 100; "
            "print(ray.is_initialized())")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "False"
