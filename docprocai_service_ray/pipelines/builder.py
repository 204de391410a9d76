"""Declarative pipeline assembly (the §2.9 user-extension surface).

The reference exposes config-driven feature flags, an abstract service
interface and a processor-per-format dispatch
(reference: service/DocProcAiService.py:66-69, fileextractlib/LLMService.py:48-57,
fileextractlib/DocumentProcessor.py:25-30). The target equivalents:

- ``Stage`` protocol: a callable class ``__init__(cfg)`` /
  ``__call__(batch) -> batch`` — exactly the Ray Data actor-class UDF
  shape, so any user stage drops into ``map_batches`` unchanged;
- ``STAGE_REGISTRY``: named dataset→dataset builders; a pipeline is a
  LIST OF NAMES the driver assembles into the Dataset chain
  (``assemble``), with ``KGConfig`` as the single config object;
- ``EXTRACTOR_REGISTRY``: content-kind → pure extraction function
  (the DocumentProcessor dispatch analog) — register new payload kinds
  without touching the stages.
"""

from __future__ import annotations

from typing import Callable, Protocol

import pyarrow as pa

from ..config import KGConfig


class Stage(Protocol):
    """User-stage protocol: construct once per actor, transform per batch."""

    def __init__(self, cfg: KGConfig) -> None: ...

    def __call__(self, batch: pa.Table) -> pa.Table: ...


# ---- extractor dispatch (DocumentProcessor.py:25-30 analog) ----------------

EXTRACTOR_REGISTRY: dict[str, Callable[[bytes], str]] = {}


def register_extractor(kind: str):
    def deco(fn: Callable[[bytes], str]):
        EXTRACTOR_REGISTRY[kind] = fn
        return fn

    return deco


from ..functions.html_extract import extract_text as _html_extract  # noqa: E402

EXTRACTOR_REGISTRY["html"] = _html_extract


def extractor_for(kind: str) -> Callable[[bytes], str]:
    try:
        return EXTRACTOR_REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"no extractor registered for kind {kind!r}; "
            f"known: {sorted(EXTRACTOR_REGISTRY)}"
        ) from None


# ---- stage registry --------------------------------------------------------

# each entry: fn(ds, cfg, ctx) -> ds ; ctx carries cross-stage refs
# (alias_ref, entity-map ref) so stages stay independent of each other
StageBuilder = Callable

STAGE_REGISTRY: dict[str, StageBuilder] = {}


def register_stage(name: str):
    def deco(fn: StageBuilder):
        STAGE_REGISTRY[name] = fn
        return fn

    return deco


def _builtin_stages() -> None:
    from ..stages.canonicalize import build_entity_map
    from ..stages.extract import build_docs, dedup_urls, extract_docs, filter_langs
    from ..stages.mention import build_mentions
    from ..stages.segment import build_sentences
    from ..stages.triple_extract import build_triples_raw

    STAGE_REGISTRY.update(
        {
            "filter_langs": lambda ds, cfg, ctx: filter_langs(ds, cfg),
            "extract": lambda ds, cfg, ctx: extract_docs(ds, cfg),
            "dedup_urls": lambda ds, cfg, ctx: dedup_urls(ds.materialize(), cfg),
            "docs": lambda ds, cfg, ctx: build_docs(ds, cfg),
            "sentences": lambda ds, cfg, ctx: build_sentences(ds, cfg),
            "triples_raw": lambda ds, cfg, ctx: build_triples_raw(ds, cfg),
            "mentions": lambda ds, cfg, ctx: build_mentions(
                ds, ctx["alias_ref"], cfg
            ),
            "entity_map": lambda ds, cfg, ctx: build_entity_map(
                ds, ctx["alias_ref"], cfg
            ),
        }
    )


_builtin_stages()


def assemble(ds, stage_names: list[str], cfg: KGConfig, ctx: dict | None = None):
    """Chain registered stages over a Dataset: the driver-side DAG is the
    list itself (W5 analog — explicit ordering, no runtime queue)."""
    ctx = ctx or {}
    for name in stage_names:
        try:
            builder = STAGE_REGISTRY[name]
        except KeyError:
            raise KeyError(
                f"unknown stage {name!r}; known: {sorted(STAGE_REGISTRY)}"
            ) from None
        ds = builder(ds, cfg, ctx)
    return ds
