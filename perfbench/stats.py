"""Summary arithmetic for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile that has at least ten
    samples beyond it, or None when the sample is too small for any."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= 10:
            return p, percentile(values, p)
    return None


def summarize(values: list[float]) -> dict:
    """Median, sample count and the tail figure when the sample supports one."""
    out = {"median": median(values), "n": len(values)}
    t = tail(values)
    if t is not None:
        out["p"], out["p_value"] = t
    return out


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; a run that attempted nothing
    has failed outright."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return 1.0 if attempted == 0 else failed / attempted

