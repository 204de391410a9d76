"""The one size gate of every stage with a driver tier and a distributed
tier (SURVEY.md §2 A3: the reference's driver-side ``len(docs) < 11``).

:func:`choose_tier` materializes its input at most once and counts it from
block metadata; :func:`forced` pins every gate in its ``with`` block to one
tier (tests and scripts only; the package never forces). Each decision
logs one line: what, size, limit, tier, forced.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging

TIERS = ("driver", "distributed")

logger = logging.getLogger(__name__)
_forced: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "raykg_forced_tier", default=None)


@contextlib.contextmanager
def forced(tier: str):
    """Every gate inside the block picks ``tier``, whatever the size."""
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    token = _forced.set(tier)
    try:
        yield
    finally:
        _forced.reset(token)


def tier_for(size: int | None, limit: int, *, what: str) -> str:
    """``"driver"`` when ``size <= limit``, else ``"distributed"`` (also for
    an unknown size), unless a tier is forced."""
    force = _forced.get()
    tier = force or ("driver" if size is not None and size <= limit
                     else "distributed")
    logger.info("tier %s: size=%s limit=%d -> %s (forced=%s)",
                what, size, limit, tier, force is not None)
    return tier


def choose_tier(ds, limit: int, *, what: str):
    """``(tier, materialized ds)`` for a gate of ``limit`` rows; the caller
    goes on with the returned Dataset, so the plan runs once."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    return tier_for(ds.count(), limit, what=what), ds
