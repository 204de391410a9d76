"""In-memory spans around calls into the program's layers.

The traced pass rebinds selected public functions of ``docprocai_service_ray``
to wrappers that open a span, call the original and materialize a returned
Dataset inside the span, so a layer's time covers the work it started.
Nothing in the program changes; the originals are restored after the pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
import time
from collections.abc import Callable, Iterator

PACKAGE = "docprocai_service_ray"
ENTRY_MODULE = "__ray_entry__"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of ``[lo, hi]`` covered by the union of
    ``intervals``."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_time(span: Span, spans: list[Span]) -> float:
    """A span's duration minus the part of it its direct children cover;
    overlapping children are counted once."""
    kids = [(c.start, c.end) for c in spans if c.parent == span.id]
    return span.duration - covered(kids, span.start, span.end)


class Tracer:
    """Spans of one benchmark process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.pass_id, attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def of_pass(self, pass_id: int) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                row = dataclasses.asdict(s)
                row["self_s"] = self_time(s, self.spans)
                f.write(json.dumps(row, default=str) + "\n")


def is_dataset(obj) -> bool:
    return hasattr(obj, "materialize") and hasattr(obj, "iter_internal_ref_bundles")


def block_rows(ds) -> list[int]:
    """Rows per block of a materialized Dataset, from block metadata."""
    return [meta.num_rows or 0
            for bundle in ds.iter_internal_ref_bundles()
            for _, meta in bundle.blocks]


def describe(ds) -> dict:
    """Rows, bytes and block row counts of a materialized Dataset."""
    rows = block_rows(ds)
    return {"rows": sum(rows), "bytes": ds.size_bytes() or 0, "blocks": rows}


def operator_stats(ds) -> list[dict] | None:
    """Per-operator rows and busy time of an executed Dataset and its
    parents, read from Ray Data's private ``_get_stats_summary()``. This is
    the only place that touches that API: if its shape changes, the result
    is None and the ``ray_op.*`` metrics are reported missing."""
    try:
        out: list[dict] = []
        todo = [ds._get_stats_summary()]
        while todo:
            s = todo.pop()
            todo.extend(s.parents)
            for op in s.operators_stats:
                # one execution of an operator appears in the lineage of
                # every later dataset: its name and run interval identify it
                out.append({
                    "key": (op.operator_name, op.earliest_start_time,
                            op.latest_end_time),
                    "op": op.operator_name,
                    "busy_s": float((op.wall_time or {}).get("sum", 0.0)),
                    "rows_out": int((op.output_num_rows or {}).get("sum", 0)),
                    "spilled_bytes": int(s.global_bytes_spilled or 0),
                })
        return out
    except (AttributeError, TypeError, KeyError, ValueError):
        return None


def _materialize_inputs(args: tuple, kwargs: dict) -> tuple[tuple, dict, list[dict]]:
    """Materialize every Dataset argument; returns the new arguments and
    a description of each input."""
    seen: list[dict] = []

    def one(v):
        if is_dataset(v):
            v = v.materialize()
            seen.append(describe(v))
        return v

    return (tuple(one(a) for a in args),
            {k: one(v) for k, v in kwargs.items()}, seen)


def _describe_output(sp: Span, out):
    if is_dataset(out):
        out = out.materialize()
        d = describe(out)
        sp.attrs.update(rows_out=d["rows"], bytes_out=d["bytes"], blocks=d["blocks"],
                        ops=operator_stats(out))
    elif hasattr(out, "__len__") and hasattr(out, "columns"):
        sp.attrs.update(rows_out=len(out), blocks=[len(out)])
    return out


def stage_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A stage owns its lazy inputs: they are materialized inside its span."""

    def wrapped(*args, **kwargs):
        with tracer.span(name) as sp:
            args, kwargs, ins = _materialize_inputs(args, kwargs)
            sp.attrs["rows_in"] = sum(d["rows"] for d in ins)
            sp.attrs["bytes_in"] = sum(d["bytes"] for d in ins)
            return _describe_output(sp, fn(*args, **kwargs))

    wrapped.__wrapped__ = fn
    return wrapped


def state_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """An exchange's span covers only the exchange: lazy upstream work of
    its inputs runs first, in an ``upstream`` span of its own."""

    def wrapped(*args, **kwargs):
        # write_stage(ds, out_dir, stage, ...): which checkpoint is written
        stage = args[2] if len(args) > 2 else kwargs.get("stage")
        with tracer.span("upstream." + name, stage=stage):
            args, kwargs, ins = _materialize_inputs(args, kwargs)
        with tracer.span(name, stage=stage) as sp:
            sp.attrs["rows_in"] = sum(d["rows"] for d in ins)
            sp.attrs["bytes_in"] = sum(d["bytes"] for d in ins)
            out = _describe_output(sp, fn(*args, **kwargs))
        if isinstance(out, str) and os.path.isdir(out):
            files = _parquet_rows(out)
            sp.attrs.update(files_written=len(files), rows_out=sum(files),
                            blocks=files)
        return out

    wrapped.__wrapped__ = fn
    return wrapped


def _parquet_rows(path: str) -> list[int]:
    """Row count of each Parquet file under a written stage directory."""
    import pyarrow.parquet as pq

    return [pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
            for d, _, fs in os.walk(path) for f in fs if f.endswith(".parquet")]


def _modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + ".")
                                  or n == ENTRY_MODULE)]


@contextlib.contextmanager
def rebound(wrappers: dict[tuple[str, str], Callable[[Callable], Callable]]):
    """Rebind ``(module, function)`` targets to ``make(original)`` in every
    loaded module of the package that bound the original object, whether
    at module top or through a later import; restore on exit."""
    import importlib

    patches: list[tuple[object, str, object]] = []
    try:
        for (modname, fname), make in wrappers.items():
            orig = getattr(importlib.import_module(modname), fname)
            new = make(orig)
            for mod in _modules():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, attr, orig))
                        setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, orig in reversed(patches):
            setattr(mod, attr, orig)
