#!/usr/bin/env python3
"""Benchmark driver: one workload, one process.

    python3 perfbench/run.py --workload kg_stream --seed 1 --seconds 25 --trace 0

Run from the repository root. The run

1. records its conditions (cores, Ray logical CPUs, a matmul contention
   probe, load average, seed, input size, source commit);
2. sets up: starts Ray, builds the seeded inputs and their reference
   outputs, and warms the program up (``setup_s``);
3. with ``--trace 0``, repeats untimed-verified passes for ``--seconds``
   seconds, and at least ``MIN_PASSES`` times, and reports the end-to-end
   metrics as medians; with ``--trace 1``, runs
   one untraced and one traced pass and reports the per-layer metrics,
   writing the spans to ``.pbw/spans_<workload>_<seed>.jsonl``;
4. prints every metric with its unit, then one JSON result line.

Every pass is bounded by a timeout; a pass that raises, times out or
disagrees with the reference counts as failed. The run exits non-zero
without a result line when it cannot set up at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "docprocai_service_ray")
RAY_CPUS = 4            # stages.common.pool_size keeps actor pools at CPUs - 2
OBJECT_STORE_BYTES = 512 << 20
PASS_TIMEOUT_S = 90.0
MIN_PASSES = 2          # halves the weight of one pass hit by a neighbour's load spike
RUN_BUDGET_S = 165.0    # every run must end well within 180 s
AF_UNIX_MAX = 107       # Ray's socket paths live under its temp dir
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_9999999/sockets/plasma_store")
KERNEL_PAGES = 1000

END_TO_END = (("wall_s", "s"), ("records_per_s", "records/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _bounded(fn, timeout: float):
    """Run ``fn`` in a daemon thread; returns ``(result, error)`` where
    error is a message when it raised or did not finish in ``timeout``."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as e:  # noqa: BLE001 - reported as a failed operation
            box["error"] = f"{type(e).__name__}: {e}"[:500]

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(1.0, timeout))
    if t.is_alive():
        return None, f"timed out after {timeout:.0f} s"
    return box.get("result"), box.get("error")


def _ray_start(work: str) -> None:
    import ray

    temp = os.path.join(work, "ray")
    kwargs = {}
    if len(temp) + RAY_SOCKET_SUFFIX <= AF_UNIX_MAX:
        kwargs["_temp_dir"] = temp
    else:
        print("note: checkout path too long for Ray sockets; Ray keeps its "
              "session files in its default temp dir", file=sys.stderr)
    ray.init(num_cpus=RAY_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _conditions(args, root: str) -> dict:
    from bench import contention_probe

    from perfbench.layers import loadavg1, source_commit

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_logical_cpus": RAY_CPUS, "contention_probe_s": contention_probe(),
        "loadavg1_start": loadavg1(),
        "commit": source_commit(root),
    }


def _traced_pass(wl, tracer):
    """One pass with every stage and exchange function of the workload
    rebound to a span-recording wrapper."""
    from perfbench import trace
    from perfbench.workloads import STATE_TARGETS

    wrappers = {}
    for mod, fn in wl.stage_targets:
        layer = "sources" if fn == "read_web_pages" else "stages"
        wrappers[(mod, fn)] = (lambda f, n=f"{layer}.{fn}":
                               trace.stage_wrapper(tracer, n, f))
    for mod, fn in STATE_TARGETS:
        wrappers[(mod, fn)] = (lambda f, n=f"state.{fn}":
                               trace.state_wrapper(tracer, n, f))
    with trace.rebound(wrappers):
        return wl.run_pass(tracer)


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = "missing" if value is None else f"{value:.6g}"
    print(f"metric {name} = {shown} {unit}{('  (' + note + ')') if note else ''}")


def main(argv: list[str] | None = None) -> int:
    t_start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(PACKAGE_DIR):
        print(f"error: {PACKAGE_DIR} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    # the repo root goes on the path of this process and, through the
    # environment Ray inherits, of every Ray worker
    sys.path[:0] = [ROOT, os.path.join(ROOT, "scripts")]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x])

    from perfbench import layers, stats
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".pbw", f"{args.workload}_{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[args.workload](work, args.seed)
    cond = _conditions(args, ROOT)

    import ray

    deadline = t_start + RUN_BUDGET_S
    passes, errors = [], []
    attempted = failed = 0
    layer_m: dict[str, float] = {}
    rss_reset = True
    try:
        t0 = time.perf_counter()
        _ray_start(work)
        parts = {"ray_start_s": time.perf_counter() - t0}

        def set_up():
            for name, step in (("prepare_s", wl.prepare), ("warm_up_s", wl.warm_up)):
                t = time.perf_counter()
                step()
                parts[name] = time.perf_counter() - t

        _, err = _bounded(set_up, deadline - time.monotonic() - 30)
        setup_s = time.perf_counter() - t0
        cond["setup_parts_s"] = {k: round(v, 3) for k, v in parts.items()}
        if err:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            return 1
        cond["records_per_pass"] = wl.records

        def one(fn):
            nonlocal attempted, failed, rss_reset
            gc.collect()
            rss_reset = layers.reset_peak_rss() and rss_reset
            res, err = _bounded(fn, min(PASS_TIMEOUT_S, deadline - time.monotonic()))
            if err:
                attempted += wl.ops_per_pass
                failed += wl.ops_per_pass
                errors.append(err)
                return None
            attempted += res.attempted
            failed += res.failed
            errors.extend(res.errors)
            res.rss_mb = layers.peak_rss_mb()
            return res

        # a pass starts only if twice the last one still fits the budget
        t_measure = time.monotonic()
        while True:
            t_it = time.monotonic()
            res = one(lambda: wl.run_pass(None))
            if res is None:
                break
            passes.append(res)
            fits = deadline - time.monotonic() >= 2 * (time.monotonic() - t_it)
            if args.trace or (time.monotonic() - t_measure >= args.seconds
                               and len(passes) >= MIN_PASSES):
                break
            if not fits:
                print("note: run budget reached; measuring stops early", file=sys.stderr)
                break

        if args.trace and passes and not fits:
            print("note: run budget reached; no traced pass", file=sys.stderr)
        elif args.trace and passes:
            tracer = Tracer()
            tracer.pass_id = 1
            traced = one(lambda: _traced_pass(wl, tracer))
            if traced is not None:
                untraced = passes[-1].wall_s
                layer_m = layers.span_metrics(tracer.of_pass(1), traced.wall_s, wl.cfg)
                layer_m["stages.build_entity_map.surfaces_per_entity"] = \
                    traced.surfaces_per_entity
                layer_m.update({
                    "pass.untraced_wall_s": untraced,
                    "pass.traced_wall_s": traced.wall_s,
                    "trace.overhead_s": traced.wall_s - untraced,
                })
                for q, w in passes[-1].op_wall_s.items():
                    layer_m[f"pipelines.query.{q}.wall_s"] = w
                if wl.stage_targets:
                    kern, err = _bounded(
                        lambda: layers.kernel_metrics(args.seed, KERNEL_PAGES,
                                                      wl.alias, wl.cfg),
                        deadline - time.monotonic())
                    if err:
                        errors.append(f"kernel timing: {err}")
                    layer_m.update(kern or {})
            tracer.dump(os.path.join(ROOT, ".pbw",
                                     f"spans_{args.workload}_{args.seed}.jsonl"))
    finally:
        ray.shutdown()

    cond["loadavg1_end"] = layers.loadavg1()
    cond["rss_peak_reset"] = rss_reset
    frac = stats.failed_frac(attempted, failed)
    for e in errors:
        print(f"failure: {e}")
    print("conditions " + json.dumps(cond, sort_keys=True))
    print(f"operations attempted={attempted} failed={failed} failed_frac={frac:.6g}")
    print("passes wall_s " + " ".join(f"{r.wall_s:.3f}" for r in passes))

    metrics: dict[str, dict] = {}
    if args.trace:
        # a layer the workload never calls reads 0; with no completed traced
        # pass every layer metric is missing
        for name, unit, _ in layers.catalogue():
            if name == "pass.failed_frac":
                v = frac
            elif not layer_m:
                v = None
            else:
                v = layer_m.get(name, None if name.startswith("ray_op.") else 0.0)
            _print_metric(name, v, unit)
            if v is not None:
                metrics[name] = {"value": v, "unit": unit}
    elif passes:
        samples = {
            "wall_s": [r.wall_s for r in passes],
            "records_per_s": [r.records / r.wall_s for r in passes],
            "setup_s": [setup_s],
            "peak_rss_mb": [r.rss_mb for r in passes],
        }
        for name, unit in END_TO_END:
            s = stats.summarize(samples[name])
            note = f"median of n={s['n']}" + (
                f", p{s['p']}={s['p_value']:.6g}" if "p" in s else
                ", too few samples for a tail percentile")
            _print_metric(name, s["median"], unit, note)
            metrics[name] = {"value": s["median"], "unit": unit}
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    # a pass that timed out may still hold a thread inside Ray; Ray itself is
    # stopped above, so leave without waiting for that thread
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
