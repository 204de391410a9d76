"""Deterministic corpus sampling — the reproducible-subset op a
training-data pipeline needs (seeded eval splits, ablation shards,
cheap-pass corpora).

``Dataset.random_sample(seed)`` is seed-stable only for a fixed block
layout; this op instead keys the keep/drop decision on a CONTENT hash of
a key column, so the same row lands in the same split at any parallelism,
on any cluster shape, across re-ingests — and the predicate is exactly
reproducible in SQL (DuckDB ``md5``), so the op is oracle-checkable.

Mechanism: a row is kept iff the first ``prefix`` hex chars of
``md5(seed_tag || key)`` compare below the rate threshold — fixed-width
lowercase hex compares lexicographically == numerically, so the SQL side
is a plain string comparison. Rate granularity is 16^prefix (default
16^4 = 1/65536). ``by`` adds stratification: the threshold applies within
every stratum independently (same predicate — strata only change which
rows you READ it over, not the hash), giving per-stratum rate guarantees
without a shuffle. Salting the hash with ``seed`` makes splits
independent across seeds (disjoint-ish, not complementary; use
``complement=True`` for the exact complement split)."""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa


def sample_threshold(rate: float, prefix: int = 4) -> str:
    """Hex threshold t such that P[md5_prefix < t] == round(rate * 16^p) / 16^p.

    When the rounded bucket count saturates (rate → 1.0), the natural
    threshold 16^p does not fit in ``prefix`` hex digits and its string
    form ('10000') compares LOWER than most hex prefixes ('f…' > '1…'),
    which would silently keep only ~1/16 of rows. Return 'g' instead:
    0x67 > 0x66 ('f'), so 'g' is strictly greater than every hex string
    under byte-wise comparison in both Python and DuckDB — keep-all."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    buckets = 16 ** prefix
    n = min(buckets, round(rate * buckets))
    if n >= buckets:
        return "g"
    return format(n, f"0{prefix}x")


def _key_hash_prefix(keys: pd.Series, seed: int, prefix: int) -> pd.Series:
    tag = f"s{seed}\x1f"
    return keys.fillna("").map(
        lambda k: hashlib.md5((tag + str(k)).encode("utf-8")).hexdigest()[:prefix]
    )


def hash_sample(ds, key_col: str, rate: float, *, seed: int = 42,
                prefix: int = 4, complement: bool = False):
    """Keep rows whose salted md5(key) prefix falls under ``rate``.
    Pure map — no shuffle, no driver state, stable at any parallelism."""
    thr = sample_threshold(rate, prefix)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        h = _key_hash_prefix(df[key_col], seed, prefix)
        mask = (h >= thr) if complement else (h < thr)
        return df[mask]

    return ds.map_batches(keep, batch_format="pandas")


def sample_sql_predicate(key_col: str, rate: float, *, seed: int = 42,
                         prefix: int = 4, complement: bool = False) -> str:
    """The EXACT DuckDB predicate for hash_sample — same salt, same md5,
    same hex-prefix comparison; used by the oracle side."""
    thr = sample_threshold(rate, prefix)
    op = ">=" if complement else "<"
    return (
        f"substr(md5('s{seed}' || chr(31) || CAST({key_col} AS VARCHAR)), "
        f"1, {prefix}) {op} '{thr}'"
    )


def split_train_holdout(ds, key_col: str, holdout_rate: float, *, seed: int = 42):
    """Complementary deterministic split: (train, holdout). Every row lands
    in exactly one side — same hash, opposite comparison."""
    return (
        hash_sample(ds, key_col, holdout_rate, seed=seed, complement=True),
        hash_sample(ds, key_col, holdout_rate, seed=seed),
    )


def stratified_rates_check(sampled_ds, full_counts: dict, by: str) -> pa.Table:
    """Diagnostic: per-stratum achieved rate vs corpus counts (tiny)."""
    counts = (
        sampled_ds.groupby(by)
        .count()
        .to_pandas()
        .rename(columns={"count()": "sampled"})
    )
    counts["total"] = counts[by].map(full_counts).astype("int64")
    counts["rate"] = counts["sampled"] / counts["total"]
    return pa.Table.from_pandas(counts, preserve_index=False)


def stratified_sample(ds, key_col: str, strata_col: str,
                      rates: dict[str, float], *, default_rate: float = 0.0,
                      seed: int = 42, prefix: int = 4):
    """Per-stratum deterministic sampling — the corpus-rebalancing op
    (upsample minority languages/sources, downsample the head) — with a
    DIFFERENT rate per ``strata_col`` value. Same content-hash predicate
    as :func:`hash_sample`, so it is a pure map (no shuffle, no driver
    state, parallelism-invariant) and exactly SQL-reproducible; strata not
    in ``rates`` fall back to ``default_rate``."""
    thr_map = {s: sample_threshold(r, prefix) for s, r in rates.items()}
    default_thr = sample_threshold(default_rate, prefix)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        h = _key_hash_prefix(df[key_col], seed, prefix)
        thr = df[strata_col].map(thr_map).fillna(default_thr)
        return df[h < thr]

    return ds.map_batches(keep, batch_format="pandas")


def stratified_sql_predicate(key_col: str, strata_col: str,
                             rates: dict[str, float], *,
                             default_rate: float = 0.0, seed: int = 42,
                             prefix: int = 4) -> str:
    """The EXACT DuckDB predicate for :func:`stratified_sample`."""
    h = (f"substr(md5('s{seed}' || chr(31) || CAST({key_col} AS VARCHAR)), "
         f"1, {prefix})")
    cases = "".join(
        f"WHEN '{s}' THEN '{sample_threshold(r, prefix)}' "
        for s, r in sorted(rates.items())
    )
    default_thr = sample_threshold(default_rate, prefix)
    return (f"{h} < (CASE {strata_col} {cases}"
            f"ELSE '{default_thr}' END)")


def weighted_sample(ds, key_col: str, weight_col: str, k: int, *,
                    seed: int = 42, round_to: int = 9):
    """Deterministic weighted sampling without replacement (Efraimidis &
    Spirakis 2006, "Weighted random sampling with a reservoir"): each row
    draws u ~ U(0,1) FROM A CONTENT HASH of its key (no RNG state — the
    same row gets the same draw at any parallelism, on any cluster, in
    SQL) and scores ``exp_key = -ln(u) / weight``; the k SMALLEST keys
    are exactly a weight-proportional sample without replacement.

    Distributed shape: per-batch vectorized scoring + partial top-k
    (nsmallest), then one tiny sort+limit — the brute_force_topk pattern.
    Rows with weight <= 0 are excluded. Output: the sampled rows +
    ``exp_key`` rounded for cross-engine comparison."""

    def score(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[weight_col] > 0]
        if not len(df):
            return df.assign(exp_key=0.0)
        import numpy as np

        tag = f"w{seed}\x1f"
        u = np.fromiter(
            (
                (int(hashlib.md5((tag + str(v)).encode()).hexdigest()[:8], 16) + 1)
                / 4294967296.0
                for v in df[key_col]
            ),
            dtype=np.float64, count=len(df),
        )
        ek = -np.log(u) / df[weight_col].to_numpy(dtype=np.float64)
        out = df.assign(exp_key=np.round(ek, round_to))
        return out.nsmallest(k, ["exp_key", key_col])

    return (
        ds.map_batches(score, batch_format="pandas")
        .sort(["exp_key", key_col])
        .limit(k)
    )


def weighted_sample_sql(table: str, cols: list[str], key_col: str,
                        weight_col: str, k: int, *, seed: int = 42,
                        round_to: int = 9) -> str:
    """DuckDB twin of :func:`weighted_sample` — same hash, same
    exponential key, same tiebreak."""
    u = (f"((('0x' || substr(md5('w{seed}' || chr(31) || "
         f"CAST({key_col} AS VARCHAR)), 1, 8))::BIGINT + 1) / 4294967296.0)")
    sel = ", ".join(cols)
    return f"""
        SELECT {sel}, ROUND(-LN({u}) / {weight_col}, {round_to}) AS exp_key
        FROM {table}
        WHERE {weight_col} > 0
        ORDER BY exp_key, {key_col} LIMIT {k}
    """


def _shuffle_keys(keys: pd.Series, seed: int) -> pd.Series:
    """Fixed-width 16-hex md5 order key (lexicographic == numeric)."""
    tag = f"sh{seed}\x1f"
    return keys.map(
        lambda k: hashlib.md5((tag + str(k)).encode("utf-8")).hexdigest()[:16]
    )


def shard_shuffle(ds, id_col: str, n_shards: int, *, seed: int = 42,
                  num_buckets: int = 256):
    """Deterministic global shuffle into training shards: every row gets
    ``(shard, pos)`` — a pseudo-random permutation of the corpus laid out
    as ``n_shards`` equal-ish streams, the data-ordering step a trainer
    runs before writing tokenized shards (so no epoch ever sees the
    corpus in crawl order). Content-hash keyed: the same row lands at the
    same (shard, pos) at any parallelism, on any cluster shape, and in
    SQL — ``random_shuffle()`` can't promise any of that.

    ``shard = int(md5_16[:8], 16) % n_shards``; ``pos`` = rank of the
    md5 key within the shard (ties broken by id). Rank is computed
    scalably with the pack_spans range-bucket shape: the md5 key's first
    byte buckets each shard into ``num_buckets`` ORDERED ranges, one tiny
    (shard, bucket) count pass gives exclusive offsets (≤ n_shards ×
    num_buckets ints to the driver — bytes, not data), and a
    (shard, bucket)-keyed exchange ranks within each range. Only
    (id, key) pairs move; payload columns never shuffle.
    """
    import numpy as np
    import ray

    from ..state.groupby import collect_pandas, partition_reduce

    if not 1 <= num_buckets <= 256:
        raise ValueError("num_buckets must be in [1, 256] (first-byte ranges)")

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        h = _shuffle_keys(df[id_col], seed)
        first_byte = h.str[:2].apply(int, base=16).astype("int64")
        return pd.DataFrame({
            id_col: df[id_col],
            "hkey": h,
            "shard": (h.str[:8].apply(int, base=16) % n_shards
                      ).astype("int64"),
            # range-scaled (NOT mod) so bucket order == key order — the
            # exclusive offsets below compose only for order-aligned ranges
            "bucket": (first_byte * num_buckets // 256).astype("int64"),
        })

    tagged = ds.map_batches(tag, batch_format="pandas")

    partials = tagged.map_batches(
        lambda df: df.groupby(["shard", "bucket"], as_index=False)
        .agg(n=(id_col, "size")),
        batch_format="pandas",
    )
    counts = collect_pandas(partials, ["shard", "bucket", "n"])
    counts = (counts.groupby(["shard", "bucket"], as_index=False)["n"].sum()
              .sort_values(["shard", "bucket"]))
    counts["off"] = (counts.groupby("shard")["n"].cumsum() - counts["n"])
    offsets = {(int(s), int(b)): int(o) for s, b, o in
               zip(counts["shard"], counts["bucket"], counts["off"])}
    off_ref = ray.put(offsets)

    def rank(part: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        out = []
        for (s, b), g in part.groupby(["shard", "bucket"], sort=False):
            g = g.sort_values(["hkey", id_col])
            base = offs[(int(s), int(b))]
            out.append(pd.DataFrame({
                id_col: g[id_col].to_numpy(),
                "shard": np.full(len(g), int(s), dtype="int64"),
                "pos": base + np.arange(len(g), dtype="int64"),
            }))
        return pd.concat(out, ignore_index=True)

    return partition_reduce(tagged, ["shard", "bucket"], rank)


def shard_shuffle_sql(table: str, id_col: str, n_shards: int, *,
                      seed: int = 42) -> str:
    """DuckDB twin of :func:`shard_shuffle` — same md5 key, same shard
    modulus, same (key, id) rank order."""
    h = f"substr(md5('sh{seed}' || chr(31) || CAST({id_col} AS VARCHAR)), 1, 16)"
    return f"""
        SELECT {id_col},
               CAST(('0x' || substr({h}, 1, 8))::BIGINT % {n_shards}
                    AS BIGINT) AS shard,
               CAST(ROW_NUMBER() OVER (
                        PARTITION BY ('0x' || substr({h}, 1, 8))::BIGINT
                                     % {n_shards}
                        ORDER BY {h}, {id_col}) - 1 AS BIGINT) AS pos
        FROM {table}
    """


def sample_k_per_group(ds, key_col: str, group_col: str, k: int, *,
                       seed: int = 42):
    """EXACTLY min(k, |group|) rows per group, chosen by a deterministic
    content-hash order — the bounded per-stratum sample (k eval docs per
    language, k pages per host for human review) that ``stratified_sample``'s
    rate predicate cannot promise (a rate gives per-stratum *expected*
    counts, not exact ones).

    Order key is ``md5(seed_tag || key)`` (16 hex chars; lexicographic ==
    numeric), ties broken by the key itself — identical at any
    parallelism and in SQL. Scale shape: each batch pre-truncates to its
    local top-k per group, so the group-keyed exchange carries at most
    k rows per (group, batch) — never the corpus; payload columns don't
    ride (semi-join the result back by key, J4-style, if rows are
    needed). Returns (group, key, rk) with rk ∈ [1, k].
    """
    from ..state.groupby import partition_reduce

    tag = f"k{seed}\x1f"

    def order_keys(keys: pd.Series) -> pd.Series:
        return keys.map(
            lambda v: hashlib.md5((tag + str(v)).encode("utf-8"))
            .hexdigest()[:16])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({group_col: df[group_col], key_col: df[key_col],
                          "h": order_keys(df[key_col])})
        d = d.sort_values(["h", key_col], kind="stable")
        return d.groupby(group_col, sort=False).head(k)

    def final(part: pd.DataFrame) -> pd.DataFrame:
        d = part.sort_values(["h", key_col], kind="stable")
        d = d.groupby(group_col, sort=False).head(k).copy()
        d["rk"] = (d.groupby(group_col, sort=False).cumcount() + 1
                   ).astype("int64")
        return d[[group_col, key_col, "rk"]]

    return partition_reduce(
        ds.map_batches(partial, batch_format="pandas"), [group_col], final)


def sample_k_per_group_sql(table: str, key_col: str, group_col: str,
                           k: int, *, seed: int = 42) -> str:
    """DuckDB twin of :func:`sample_k_per_group` — same salted md5 order
    key, same tie-break, same rank window."""
    h = (f"substr(md5('k{seed}' || chr(31) || CAST({key_col} AS VARCHAR)),"
         f" 1, 16)")
    return f"""
        SELECT {group_col}, {key_col}, rk FROM (
            SELECT {group_col}, {key_col},
                   CAST(ROW_NUMBER() OVER (
                            PARTITION BY {group_col}
                            ORDER BY {h}, {key_col}) AS BIGINT) AS rk
            FROM {table})
        WHERE rk <= {k}
    """
