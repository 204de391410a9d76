"""Tests of the benchmark's own arithmetic; no Ray needed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

from perfbench import layers, stats
from perfbench.trace import Span, Tracer, covered, rebound, self_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, 0, {})


def test_self_time_without_children_is_duration():
    root = _span(0, 0.0, 10.0)
    assert self_time(root, [root]) == 10.0


def test_self_time_counts_overlapping_children_once():
    root = _span(0, 0.0, 10.0)
    kids = [_span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0), _span(3, 8.0, 9.0, 0)]
    # children cover [1, 6] and [8, 9]: 6 s of the 10
    assert self_time(root, [root, *kids]) == pytest.approx(4.0)


def test_self_time_ignores_grandchildren_and_clips_children():
    root = _span(0, 0.0, 10.0)
    child = _span(1, 2.0, 12.0, 0)        # runs past its parent's end
    grandchild = _span(2, 3.0, 5.0, 1)
    spans = [root, child, grandchild]
    assert self_time(root, spans) == pytest.approx(2.0)
    assert self_time(child, spans) == pytest.approx(8.0)


def test_covered_handles_nested_and_disjoint_intervals():
    assert covered([(0, 5), (1, 2), (7, 8)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(-5, 20)], 0, 10) == pytest.approx(10.0)


def test_tracer_records_parents_and_pass():
    t = Tracer()
    t.pass_id = 3
    with t.span("outer"):
        with t.span("inner", k=1):
            pass
    outer, inner = t.spans
    assert outer.parent is None and inner.parent == outer.id
    assert inner.attrs == {"k": 1} and {s.pass_id for s in t.spans} == {3}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_median_and_tail_need_ten_samples_beyond():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.tail(list(range(10))) is None
    # 20 samples: even p75 leaves only 5 beyond it
    assert stats.tail([float(v) for v in range(1, 21)]) is None
    # 100 samples: p90 leaves 10 beyond it, p95 only 5
    assert stats.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    # 1000 samples: p99 leaves 10 beyond it, p99.9 only 1
    vals = [float(v) for v in range(1, 1001)]
    assert stats.tail(vals) == (99.0, 990.0)
    s = stats.summarize(vals)
    assert s["n"] == 1000 and s["median"] == 500.5 and s["p"] == 99.0


def test_percentile_is_nearest_rank():
    vals = [float(v) for v in range(1, 101)]
    assert stats.percentile(vals, 90) == 90.0
    assert stats.percentile(vals, 100) == 100.0
    assert stats.percentile([7.0], 99) == 7.0


def test_failed_frac():
    assert stats.failed_frac(10, 0) == 0.0
    assert stats.failed_frac(4, 1) == 0.25
    assert stats.failed_frac(0, 0) == 1.0
    with pytest.raises(ValueError):
        stats.failed_frac(2, 3)


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        layers.catalogue()
    assert len(bench["per_layer"]) <= 128
    from perfbench.run import END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    from perfbench.workloads import WORKLOADS
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def test_peak_rss_reset_drops_earlier_allocations():
    big = b"x" * (200 << 20)               # 200 MB, every page written
    del big
    before = layers.peak_rss_mb()
    if not layers.reset_peak_rss():
        pytest.skip("/proc/self/clear_refs is not writable here")
    assert layers.peak_rss_mb() < before - 150


def test_frame_diff_accepts_a_sixth_decimal_tie_only(monkeypatch):
    import pandas as pd

    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    from perfbench.workloads import _frame_diff

    want = pd.DataFrame({"source": ["a", "b"], "n": [1280, 7],
                         "ratio": [0.982813, 0.5]})
    tie = want.assign(ratio=[0.982812, 0.5]).iloc[::-1]
    assert _frame_diff(tie, want) is None
    assert _frame_diff(want.assign(ratio=[0.982810, 0.5]), want) is not None
    assert _frame_diff(want.assign(n=[1281, 7]), want) is not None
    assert _frame_diff(want.iloc[:1], want) is not None


def test_op_kind():
    assert layers.op_kind("ReadParquet") == "read"
    assert layers.op_kind("Write") == "write"
    assert layers.op_kind("Repartition") == "exchange"
    assert layers.op_kind("MapBatches(extract_batch)") == "map"


def test_rebound_replaces_every_binding_and_restores(monkeypatch):
    src = types.ModuleType("docprocai_service_ray._bench_src")
    user = types.ModuleType("docprocai_service_ray._bench_user")

    def f():
        return "orig"

    src.f = f
    user.g = f                      # bound under another name, as `import as` does
    monkeypatch.setitem(sys.modules, src.__name__, src)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    with rebound({(src.__name__, "f"): lambda orig: (lambda: "wrapped " + orig())}):
        assert src.f() == "wrapped orig" and user.g() == "wrapped orig"
    assert src.f is f and user.g is f
