"""Rule-based taxonomy routing — assign every document a topic bucket by
its DOMINANT keyword family, then roll up corpus composition per
(group, topic). The deterministic, SQL-expressible cousin of the
model-based domain classifiers modern pretraining mixes are built from
(WebOrganizer, Dolma's topic tags; same role as the reference's
content-kind dispatch — DocProcAiService.py routes by media type before
processing, here we route TEXT by topical signal before mixture design).

Semantics (shared exactly by the engine and the DuckDB twin):

- each rule is ``(topic, regex)``; a doc's score for a rule is the number
  of non-overlapping matches of the regex in ``lower(text)``;
- the doc's topic is the FIRST rule (list order) achieving the maximum
  score — ``numpy.argmax`` first-wins == the SQL CASE ladder's order;
- a doc matching no rule at all routes to ``"other"``;
- ``n_hits`` aggregates the winning score (0 for "other" docs), so the
  rollup carries signal strength, not just membership.

Scale shape: one pure ``map_batches`` pass (compiled-once patterns,
vectorized ``str.count``) emitting per-batch (group, topic) partials —
≤ |groups|×|topics| rows leave any task — then one small grouped-sum
exchange. Text never exchanges; no driver state. Patterns use only
syntax shared by Python ``re`` and RE2 (word-boundary alternations) so
the SQL twin counts identically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

# Default rules tuned to the synthetic web corpus vocabulary (TESTDATA.md):
# four keyword families covering the data-engineering token pool. Real
# deployments pass their own rule list.
DEFAULT_RULES: list[tuple[str, str]] = [
    ("joins", r"\b(join|merge|hash)\b"),
    ("scan_exec", r"\b(scan|filter|sort)\b"),
    ("streaming", r"\b(stream|window|batch)\b"),
    ("columnar", r"\b(vector|column|agg)\b"),
]

OTHER_TOPIC = "other"


def _topic_scores(texts: pd.Series, rules) -> np.ndarray:
    """(n_docs, n_rules) int64 matrix of non-overlapping match counts
    over lowercased text. One vectorized ``str.count`` per rule."""
    low = texts.fillna("").str.lower()
    cols = [low.str.count(pat).to_numpy(dtype="int64") for _, pat in rules]
    return np.stack(cols, axis=1) if cols else np.zeros((len(texts), 0),
                                                        dtype="int64")


def route_topics(texts: pd.Series, rules=DEFAULT_RULES) -> pd.DataFrame:
    """Per-doc ``(topic, hits)`` — first-wins argmax over rule scores;
    zero-score docs route to :data:`OTHER_TOPIC` with 0 hits."""
    scores = _topic_scores(texts, rules)
    if not scores.size:
        return pd.DataFrame({"topic": pd.Series([OTHER_TOPIC] * len(texts),
                                                dtype=object),
                             "hits": np.zeros(len(texts), dtype="int64")})
    best = scores.max(axis=1)
    idx = scores.argmax(axis=1)  # first max wins — matches the SQL ladder
    names = np.asarray([t for t, _ in rules], dtype=object)
    topic = np.where(best > 0, names[idx], OTHER_TOPIC)
    return pd.DataFrame({"topic": pd.Series(topic, dtype=object),
                         "hits": best})


def taxonomy_assign(ds, id_col: str, text_col: str, *, rules=DEFAULT_RULES,
                    keep_cols: tuple[str, ...] = ()):
    """→ Dataset(id, *keep_cols, topic, hits): per-doc routing table —
    the input to topic-stratified sampling / mixture design. Pure map."""
    def assign(df: pd.DataFrame) -> pd.DataFrame:
        r = route_topics(df[text_col], rules)
        out = pd.DataFrame({id_col: df[id_col].to_numpy()})
        for c in keep_cols:
            out[c] = df[c].to_numpy()
        out["topic"] = r["topic"].to_numpy()
        out["hits"] = r["hits"].to_numpy()
        return out

    return ds.map_batches(assign, batch_format="pandas")


def taxonomy_stats(ds, group_col: str, text_col: str, *,
                   rules=DEFAULT_RULES):
    """→ Dataset(group, topic, n_docs, n_hits): corpus composition by
    dominant topic — per-batch partials (≤ groups×topics rows/task), one
    small grouped-sum exchange."""
    from ..state.groupby import group_agg

    def routed(df: pd.DataFrame) -> pd.DataFrame:
        return route_topics(df[text_col], rules).assign(
            **{group_col: df[group_col].to_numpy()})

    return group_agg(
        ds.map_batches(routed, batch_format="pandas"), [group_col, "topic"],
        {"n_docs": ("hits", "size"), "n_hits": ("hits", "sum")},
        num_partitions=4)


def _sql_scores_and_case(text_col: str, rules) -> tuple[str, str, str]:
    """Shared SQL fragments: per-rule score columns, the comma-joined
    score names, and the first-wins CASE ladder (provably equal to
    numpy's first-max argmax: the ladder picks the smallest i with
    c_i >= max(c_{i+1..}), which is exactly the first index attaining
    the maximum)."""
    score_cols = ", ".join(
        f"len(regexp_extract_all(lower(coalesce({text_col}, '')), "
        f"'{pat}')) AS c{i}"
        for i, (_, pat) in enumerate(rules))
    all_cs = ", ".join(f"c{i}" for i in range(len(rules)))
    ladder = [f"WHEN greatest({all_cs}) = 0 THEN '{OTHER_TOPIC}'"]
    for i, (topic, _) in enumerate(rules):
        later = [f"c{i} >= c{j}" for j in range(i + 1, len(rules))]
        cond = " AND ".join(later) if later else "TRUE"
        ladder.append(f"WHEN {cond} THEN '{topic}'")
    return score_cols, all_cs, "CASE " + " ".join(ladder) + " END"


def taxonomy_sql(table: str, text_col: str, group_col: str,
                 rules=DEFAULT_RULES) -> str:
    """DuckDB twin of :func:`taxonomy_stats` — per-rule match counts via
    ``regexp_extract_all`` (RE2 counts non-overlapping, same as
    ``str.count``), first-wins CASE ladder mirroring argmax order."""
    score_cols, all_cs, case = _sql_scores_and_case(text_col, rules)
    return f"""
        WITH s AS (
            SELECT {group_col}, {score_cols} FROM {table}
        ), t AS (
            SELECT {group_col}, {case} AS topic,
                   greatest({all_cs}) AS hits
            FROM s
        )
        SELECT {group_col}, topic, COUNT(*) AS n_docs,
               SUM(hits)::BIGINT AS n_hits
        FROM t GROUP BY 1, 2
    """


def topic_stratified_sample(ds, id_col: str, text_col: str,
                            rates: dict[str, float], *,
                            rules=DEFAULT_RULES, default_rate: float = 0.0,
                            seed: int = 42):
    """Topic-aware corpus rebalancing — route every doc to its dominant
    topic, then apply a DIFFERENT deterministic sampling rate per topic
    (upsample scarce topics, downsample the head — the mixture-design
    step after a routing pass). Pure composition of
    :func:`taxonomy_assign` and ``stages/sampling.stratified_sample``:
    two maps, zero exchange, parallelism-invariant, exactly
    SQL-reproducible. → Dataset(id, topic)."""
    from .sampling import stratified_sample

    assigned = taxonomy_assign(ds, id_col, text_col, rules=rules)
    return stratified_sample(assigned.drop_columns(["hits"]), id_col,
                             "topic", rates, default_rate=default_rate,
                             seed=seed)


def topic_stratified_sql(table: str, id_col: str, text_col: str,
                         rates: dict[str, float], *, rules=DEFAULT_RULES,
                         default_rate: float = 0.0, seed: int = 42) -> str:
    """DuckDB twin of :func:`topic_stratified_sample` — the taxonomy CASE
    ladder in a CTE, then the exact stratified md5-threshold predicate."""
    from .sampling import stratified_sql_predicate

    score_cols, _, case = _sql_scores_and_case(text_col, rules)
    pred = stratified_sql_predicate(id_col, "topic", rates,
                                    default_rate=default_rate, seed=seed)
    return f"""
        WITH s AS (
            SELECT {id_col}, {score_cols} FROM {table}
        ), t AS (
            SELECT {id_col}, {case} AS topic FROM s
        )
        SELECT {id_col}, topic FROM t WHERE {pred}
    """
