"""Per-document digest: deterministic summary + entity tags (Q5/M-family
completion — the reference stores per-record generated ``summary text[]``
and tags on MediaRecordInfo, persistence/MediaRecordInfoDbConnector.py:16-24,
filled by LectureLlmGenerator.py:98-142 + TopicModel.py:101-141; the LLM /
topic-model calls are replaced by a deterministic salience rule so the op
is oracle-checkable).

Per url (only urls with ≥ 1 extracted triple appear — no triples means no
salience signal, matching the reference's enrichment-only-when-content
behavior):
- ``summary``: the ``summary_k`` sentences with the most triple
  extractions, ties to the EARLIER sentence; selected sentences re-ordered
  by position and joined with a single space.
- ``top_entities``: the ``tags_k`` most frequent surfaces (subj and obj
  occurrences both count), ties to the lexicographically smaller surface,
  joined with ``|``.
- ``n_triples``: exact triple-occurrence count.

Scale shape: two partial-count map stages (one over triples_raw, shuffling
only (url, sent_id, hits) / (url, surface, cnt) partial rows), one
partition_reduce each, a hash_join (auto broadcast/shuffle tier) to pull
the ≤ summary_k selected sentence TEXTS per url — the sentence table is
never shuffled wholesale — and a final url-keyed join of the two digests.
"""

from __future__ import annotations

import pandas as pd

from ..config import KGConfig
from ..state.groupby import partition_reduce
from ..state.joins import hash_join


def build_doc_summaries(sentences_ds, triples_raw_ds, cfg: KGConfig, *,
                        summary_k: int = 2, tags_k: int = 3):
    """→ Dataset (url, summary, top_entities, n_triples), one row per url
    with at least one triple."""

    # ---- sentence salience: triple hits per (url, sent_id) ----
    def hits_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["url", "sent_id"], sort=False).size()
        out = g.reset_index()
        out.columns = ["url", "sent_id", "hits"]
        return out

    hit_partials = triples_raw_ds.select_columns(["url", "sent_id"]).map_batches(
        hits_partial, batch_format="pandas"
    )

    def hits_reduce(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["url", "sent_id"], as_index=False).agg(
            hits=("hits", "sum")
        )
        # top summary_k per url: most hits first, earlier sentence on ties
        g = g.sort_values(["url", "hits", "sent_id"],
                          ascending=[True, False, True])
        return g.groupby("url", sort=False).head(summary_k)

    selected = partition_reduce(hit_partials, ["url"], hits_reduce)

    # pull ONLY the selected sentences' text (≤ summary_k per url)
    sel_text = hash_join(
        sentences_ds.select_columns(["url", "sent_id", "text"]),
        selected,
        on=["url", "sent_id"],
        how="inner",
    )

    def summary_reduce(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["url", "sent_id"])  # positional order
        g = part.groupby("url", as_index=False).agg(summary=("text", " ".join))
        return g

    summaries = partition_reduce(sel_text, ["url"], summary_reduce)

    # ---- entity tags: surface occurrence counts per url ----
    def ent_partial(df: pd.DataFrame) -> pd.DataFrame:
        melted = pd.concat(
            [df[["url", "subj"]].rename(columns={"subj": "surface"}),
             df[["url", "obj"]].rename(columns={"obj": "surface"})],
            ignore_index=True,
        )
        g = melted.groupby(["url", "surface"], sort=False).size().reset_index()
        g.columns = ["url", "surface", "cnt"]
        # exact per-url triple count rides along: each row is subj+obj, so
        # the url's triple count is half its surface-occurrence total
        return g

    ent_partials = triples_raw_ds.select_columns(["url", "subj", "obj"]).map_batches(
        ent_partial, batch_format="pandas"
    )

    def ent_reduce(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["url", "surface"], as_index=False).agg(cnt=("cnt", "sum"))
        totals = g.groupby("url", as_index=False).agg(total=("cnt", "sum"))
        top = (
            g.sort_values(["url", "cnt", "surface"], ascending=[True, False, True])
            .groupby("url", sort=False)
            .head(tags_k)
        )
        tags = top.groupby("url", as_index=False).agg(
            top_entities=("surface", "|".join)
        )
        tags = tags.merge(totals, on="url")
        tags["n_triples"] = (tags["total"] // 2).astype("int64")
        return tags[["url", "top_entities", "n_triples"]]

    tags = partition_reduce(ent_partials, ["url"], ent_reduce)

    out = hash_join(summaries, tags, on="url", how="inner")
    return out.map_batches(
        lambda df: df[["url", "summary", "top_entities", "n_triples"]],
        batch_format="pandas",
    )
