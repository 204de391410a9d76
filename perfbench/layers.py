"""Per-layer metrics: the span aggregation of the traced pass, the in-process
kernel timings, and the measurement conditions of a run.

Which end-to-end metric each layer metric should move, and on which
workload, is listed in README.md beside this file.
"""

from __future__ import annotations

import os
import resource
import subprocess
import time

from .trace import Span, covered

STAGES = (
    "extract_docs", "dedup_urls", "build_triples_raw_fused", "build_entity_map",
    "build_triples_auto", "url_links_from_docs", "host_edges_from_url_links",
    "host_pagerank", "write_triples",
)
STATE_FNS = ("partition_reduce", "distinct_rows", "hash_join", "collect_pandas",
             "write_stage")
QUERIES = ("bigram_bits_by_source", "line_dedup_docs", "distinct_ngrams_by_source",
           "exact_dedup_docs", "orders_lineitem_join")
# writes return no Dataset, so no operator statistics reach the spans
OP_KINDS = ("read", "map", "exchange")
KERNELS = (
    ("functions.extract_text.us_per_page", "us/page"),
    ("functions.split_sentences.us_per_doc", "us/doc"),
    ("functions.extract_triples.us_per_sentence", "us/sentence"),
    ("stages.linkgraph.link_partial_arrays.us_per_page", "us/page"),
    ("functions.canon.lsh_candidate_edges.us_per_surface", "us/surface"),
    ("functions.linking.best_candidate.us_per_surface", "us/surface"),
)
KERNEL_COUNTS = (
    ("functions.sample.pages", "count"),
    ("functions.sample.sentences", "count"),
    ("functions.sample.surfaces", "count"),
    ("functions.canon.candidate_pairs", "count"),
    ("functions.canon.verified_pairs", "count"),
    ("functions.canon.verified_per_candidate", "ratio"),
)


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    out = [
        ("pass.untraced_wall_s", "s", "lower"),
        ("pass.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.stage_coverage", "ratio", "higher"),
        ("pass.failed_frac", "ratio", "lower"),
        ("ray.spilled_mb", "MB", "lower"),
        ("sources.read.wall_s", "s", "lower"),
        ("sources.read.mb", "MB", "lower"),
    ]
    out += [(n, u, "lower") for n, u in KERNELS]
    out += [(n, u, "higher" if n.endswith("per_candidate") else "lower")
            for n, u in KERNEL_COUNTS]
    for st in STAGES:
        out += [(f"stages.{st}.wall_s", "s", "lower"),
                (f"stages.{st}.rows_in", "rows", "lower"),
                (f"stages.{st}.rows_out", "rows", "lower"),
                (f"stages.{st}.bytes_out", "bytes", "lower")]
    out += [
        ("stages.dedup_urls.keep_ratio", "ratio", "higher"),
        ("stages.dedup_urls.gate_n_docs", "rows", "lower"),
        ("stages.dedup_urls.driver_tier", "bool", "higher"),
        ("stages.build_entity_map.gate_n_surfaces", "rows", "lower"),
        ("stages.build_entity_map.driver_tier", "bool", "higher"),
        ("stages.build_entity_map.surfaces_per_entity", "ratio", "higher"),
        ("stages.build_triples_auto.gate_emap_bytes", "bytes", "lower"),
        ("stages.build_triples_auto.broadcast_tier", "bool", "higher"),
    ]
    for fn in STATE_FNS:
        out += [(f"state.{fn}.calls", "count", "lower"),
                (f"state.{fn}.wall_s", "s", "lower"),
                (f"state.{fn}.rows_in", "rows", "lower"),
                (f"state.{fn}.rows_out", "rows", "lower"),
                (f"state.{fn}.bytes_in", "bytes", "lower"),
                (f"state.{fn}.partitions", "count", "lower"),
                (f"state.{fn}.max_over_mean_partition_rows", "ratio", "lower")]
    out.append(("state.write_stage.files_written", "count", "lower"))
    out += [(f"pipelines.query.{q}.wall_s", "s", "lower") for q in QUERIES]
    for k in OP_KINDS:
        out += [(f"ray_op.{k}.busy_s", "s", "lower"),
                (f"ray_op.{k}.rows_out", "rows", "lower")]
    return out


def op_kind(operator_name: str) -> str:
    """Fixed category of a Ray Data operator name."""
    if operator_name.startswith("Read"):
        return "read"
    if operator_name.startswith("Write"):
        return "write"
    if any(w in operator_name for w in ("Repartition", "Sort", "Shuffle", "Aggregate",
                                         "GroupBy", "Join", "Zip", "Union", "Limit")):
        return "exchange"
    return "map"


def _sum(spans: list[Span], key: str) -> float:
    return sum(s.attrs.get(key, 0) or 0 for s in spans)


def span_metrics(spans: list[Span], pass_wall: float, cfg) -> dict[str, float]:
    """Layer metrics of one traced pass; layers the workload never calls
    read 0."""
    m: dict[str, float] = {}
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    reads = by.get("sources.read_web_pages", [])
    m["sources.read.wall_s"] = sum(s.duration for s in reads)
    m["sources.read.mb"] = _sum(reads, "bytes_out") / 1e6

    for st in STAGES:
        ss = by.get(f"stages.{st}", [])
        m[f"stages.{st}.wall_s"] = sum(s.duration for s in ss)
        m[f"stages.{st}.rows_in"] = _sum(ss, "rows_in")
        m[f"stages.{st}.rows_out"] = _sum(ss, "rows_out")
        m[f"stages.{st}.bytes_out"] = _sum(ss, "bytes_out")
    n_docs = m["stages.dedup_urls.rows_in"]
    m["stages.dedup_urls.keep_ratio"] = (
        m["stages.dedup_urls.rows_out"] / n_docs if n_docs else 0.0)
    m["stages.dedup_urls.gate_n_docs"] = n_docs
    m["stages.dedup_urls.driver_tier"] = float(0 < n_docs <= cfg.driver_dedup_max)
    n_surf = m["stages.build_entity_map.rows_out"]
    m["stages.build_entity_map.gate_n_surfaces"] = n_surf
    m["stages.build_entity_map.driver_tier"] = float(0 < n_surf <= cfg.driver_canon_max)
    emap_bytes = m["stages.build_entity_map.bytes_out"]
    m["stages.build_triples_auto.gate_emap_bytes"] = emap_bytes
    m["stages.build_triples_auto.broadcast_tier"] = float(
        0 < emap_bytes <= cfg.emap_broadcast_max_bytes)

    for fn in STATE_FNS:
        ss = by.get(f"state.{fn}", [])
        m[f"state.{fn}.calls"] = len(ss)
        m[f"state.{fn}.wall_s"] = sum(s.duration for s in ss)
        m[f"state.{fn}.rows_in"] = _sum(ss, "rows_in")
        m[f"state.{fn}.rows_out"] = _sum(ss, "rows_out")
        m[f"state.{fn}.bytes_in"] = _sum(ss, "bytes_in")
        blocks = [s.attrs.get("blocks") or [] for s in ss]
        m[f"state.{fn}.partitions"] = sum(len(b) for b in blocks)
        m[f"state.{fn}.max_over_mean_partition_rows"] = max(
            [max(b) * len(b) / sum(b) for b in blocks if sum(b)] or [0.0])
    m["state.write_stage.files_written"] = _sum(by.get("state.write_stage", []),
                                                "files_written")

    # coverage: share of the pass spent inside some layer's span
    top = [(s.start, s.end) for s in spans]
    t0 = min((s.start for s in spans if s.parent is None), default=0.0)
    m["trace.stage_coverage"] = covered(top, t0, t0 + pass_wall) / pass_wall

    ops: dict[tuple, dict] = {}
    stats_ok = True
    for s in spans:
        if "ops" in s.attrs:
            if s.attrs["ops"] is None:
                stats_ok = False
                continue
            for o in s.attrs["ops"]:
                ops[o["key"]] = o
    if stats_ok:
        for k in OP_KINDS:
            m[f"ray_op.{k}.busy_s"] = 0.0
            m[f"ray_op.{k}.rows_out"] = 0
        for o in ops.values():
            k = op_kind(o["op"])
            if k not in OP_KINDS:
                continue
            m[f"ray_op.{k}.busy_s"] += o["busy_s"]
            m[f"ray_op.{k}.rows_out"] += o["rows_out"]
    m["ray.spilled_mb"] = max([o["spilled_bytes"] for o in ops.values()] or [0]) / 1e6
    return m


def kernel_metrics(seed: int, n_pages: int, alias_table, cfg) -> dict[str, float]:
    """Time each per-record kernel in this process, without Ray, over a
    fixed seeded sample of generated pages."""
    from docprocai_service_ray.functions.canon import (
        bucket_candidate_pairs,
        lsh_candidate_edges,
        surface_bands,
    )
    from docprocai_service_ray.functions.hashing import minhash_params
    from docprocai_service_ray.functions.html_extract import extract_text
    from docprocai_service_ray.functions.linking import best_candidate, build_alias_index
    from docprocai_service_ray.functions.sentences import split_sentences
    from docprocai_service_ray.functions.triples import extract_triples
    from docprocai_service_ray.sources.webgen import gen_page
    from docprocai_service_ray.stages.linkgraph import link_partial_arrays

    pages = [gen_page(seed, r) for r in range(n_pages)]
    m: dict[str, float] = {}

    def timed(name: str, n: int, fn):
        t = time.perf_counter()
        out = fn()
        m[name] = (time.perf_counter() - t) * 1e6 / max(1, n)
        return out

    texts = timed("functions.extract_text.us_per_page", len(pages),
                  lambda: [extract_text(p["html"]) for p in pages])
    sents = timed("functions.split_sentences.us_per_doc", len(texts),
                  lambda: [s[1] for t in texts for s in split_sentences(t)])
    triples = timed("functions.extract_triples.us_per_sentence", len(sents),
                    lambda: [t for s in sents for t in extract_triples(s)])
    decoded = [p["html"].decode("utf-8", errors="replace") if p["html"] else ""
               for p in pages]
    timed("stages.linkgraph.link_partial_arrays.us_per_page", len(pages),
          lambda: link_partial_arrays([p["url"] for p in pages], decoded))
    surfaces = sorted({t[0] for t in triples} | {t[2] for t in triples})
    edges = timed("functions.canon.lsh_candidate_edges.us_per_surface", len(surfaces),
                  lambda: lsh_candidate_edges(
                      surfaces, seed=cfg.seed, num_perms=cfg.minhash_perms,
                      bands=cfg.lsh_bands, k=cfg.shingle_k,
                      threshold=cfg.jaccard_threshold))
    index = build_alias_index(alias_table)
    timed("functions.linking.best_candidate.us_per_surface", len(surfaces),
          lambda: [best_candidate(s, index, cfg.embedding_dim) for s in surfaces])

    # candidate pairs the banding proposes, against the verified edges kept
    a, b = minhash_params(cfg.minhash_perms, cfg.seed)
    buckets: dict[int, list[str]] = {}
    for s in surfaces:
        for key in surface_bands(s, a, b, cfg.shingle_k, cfg.lsh_bands):
            buckets.setdefault(key, []).append(s)
    candidates = {p for v in buckets.values() for p in bucket_candidate_pairs(v)}
    m["functions.sample.pages"] = len(pages)
    m["functions.sample.sentences"] = len(sents)
    m["functions.sample.surfaces"] = len(surfaces)
    m["functions.canon.candidate_pairs"] = len(candidates)
    m["functions.canon.verified_pairs"] = len(edges)
    m["functions.canon.verified_per_candidate"] = (
        len(edges) / len(candidates) if candidates else 0.0)
    return m


def _descendants(root: int) -> list[int]:
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += kids
        todo += kids
    return out


def _ray_workers() -> list[int]:
    out = []
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    out.append(pid)
        except OSError:
            continue
    return out


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> bool:
    """Reset the peak RSS (``VmHWM``) of this process and of every live Ray
    worker to its current RSS, so the next reading covers only what runs
    after this call and not the set-up, the reference computation or the
    contention probe. Returns False when this process's peak could not be
    reset; the reading then holds the lifetime peak."""
    def clear(pid) -> bool:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
            return True
        except OSError:
            return False

    for pid in _ray_workers():
        clear(pid)
    return clear("self")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak RSS among live Ray
    workers, since the last ``reset_peak_rss``.

    Not the sum over workers: how many pooled workers have run a task, and
    so carry the libraries' footprint, varies from pass to pass by several
    hundred MB, which would drown a real change."""
    kb = _vm_hwm_kb("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += max([_vm_hwm_kb(p) for p in _ray_workers()] or [0])
    return kb / 1024.0


def loadavg1() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def source_commit(root: str) -> str:
    """The git commit of the checkout, or a digest of the package sources
    when the checkout is not a git repository."""
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(root, "docprocai_service_ray")
    for d, _, fs in sorted(os.walk(pkg)):
        for f in sorted(fs):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return "src-sha256:" + h.hexdigest()[:16]
