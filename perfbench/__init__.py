"""Benchmark of the raykg package: three workloads, end-to-end metrics from
untraced passes and per-layer metrics from a traced pass. Run it with
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see README.md."""
