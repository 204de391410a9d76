"""Deduplication operators: exact, MinHash+LSH near-dup, SimHash,
n-gram Jaccard, embedding-cosine near-dup.

First-class training-data ops. Shapes (all shuffle-once designs):

- exact: content-hash column in ``map_batches`` → ``groupby(hash)`` →
  first-per-group (the shuffle key is the 16-byte hash, never the text);
- MinHash-LSH: shingle→signature per batch → explode to
  (band_id, band_hash) rows → ``groupby`` band buckets → candidate pairs
  (capped per bucket) → exact-jaccard verify. Same skeleton as surface
  canonicalization (stages/canonicalize.py) at document granularity;
- SimHash: 64-bit signature; banding on 4×16-bit chunks (pigeonhole: any
  pair within hamming ≤ 3 shares a chunk) → verify hamming;
- embedding near-dup: random-hyperplane LSH buckets → within-bucket
  cosine (delegates to stages/similarity.py hyperplane code).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import jaccard, minhash_params, minhash_signature, simhash64
from ..state.tier import choose_tier
from .common import pool_size

_WORDS = re.compile(r"\S+")
DEDUP_PAIR_CAP = 200  # per-bucket candidate cap (star keeps connectivity)
# candidate pairs (two ids each) at or below which verification broadcasts
# an id→text map; above it the texts are joined back distributed
VERIFY_BROADCAST_MAX_PAIRS = 100_000

_log = __import__("logging").getLogger(__name__)


def exact_dedup(ds, id_col: str, text_col: str):
    """One row per distinct text: (id_col → min id, n_copies). The groupby
    key is a 16-byte blake2 hash, so only (hash, id) pairs shuffle."""

    def hash_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "h": batch[text_col]
                .fillna("")
                .map(lambda t: hashlib.blake2b(t.encode(), digest_size=16).hexdigest()),
                id_col: batch[id_col],
            }
        )

    def keep(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("h", as_index=False).agg(**{
            id_col: (id_col, "min"), "n_copies": (id_col, "size")
        })
        return g[[id_col, "n_copies"]].astype({"n_copies": "int64"})

    from ..state.groupby import partition_reduce

    return partition_reduce(
        ds.map_batches(hash_batch, batch_format="pandas"), ["h"], keep
    )


def word_shingles(text: str, k: int) -> set[str]:
    ws = _WORDS.findall((text or "").lower())
    if len(ws) <= k:
        return {" ".join(ws)} if ws else set()
    return {" ".join(ws[i : i + k]) for i in range(len(ws) - k + 1)}


def _pairs_in_bucket(ids: list, cap: int) -> list[tuple]:
    """All pairs for small buckets; a star on the min id above ``cap``
    (O(n) pairs, connectivity preserved, component diameter 2)."""
    ids = sorted(set(ids))
    if len(ids) < 2:
        return []
    if len(ids) <= cap:
        return [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    _log.warning("dedup pair cap engaged: bucket of %d ids > cap %d, star-capped", len(ids), cap)
    return [(ids[0], ids[i]) for i in range(1, len(ids))]


class _MinhashSig:
    """Per-batch MinHash banding rows; params + shingle cache per actor.
    ``emit_sigs=True`` additionally carries each doc's FULL signature
    bytes on its FIRST band row only (null on the rest — the
    persisted-index build splits the stream into a bands table and a
    sigs table; the pair path never pays the column)."""

    def __init__(self, text_col: str, id_col: str, k: int, num_perms: int,
                 bands: int, seed: int, emit_sigs: bool = False):
        self.a, self.b = minhash_params(num_perms, seed)
        self.text_col, self.id_col = text_col, id_col
        self.k, self.bands = k, bands
        self.emit_sigs = emit_sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        import zlib

        ids = batch[self.id_col].to_pylist()
        texts = batch[self.text_col].to_pylist()
        o_band, o_id, o_sig = [], [], []
        rows = self.a.shape[0] // self.bands
        # polynomial rolling hash over per-word crc32s (uint64 wraparound is
        # the mod): no per-shingle string joins — the word hashes are
        # computed once and every k-window reduces with one matvec
        bpow = (np.uint64(1099511628211) ** np.arange(self.k, dtype=np.uint64))
        for i, text in zip(ids, texts):
            ws = _WORDS.findall((text or "").lower())
            if not ws:
                continue
            wh = np.fromiter(
                (zlib.crc32(w.encode()) for w in ws), dtype=np.uint64, count=len(ws)
            )
            if len(ws) <= self.k:
                hv = np.array([(wh * bpow[: len(ws)]).sum()], dtype=np.uint64)
            else:
                win = np.lib.stride_tricks.sliding_window_view(wh, self.k)
                hv = (win * bpow).sum(axis=1)  # uint64 wrap == mod 2^64
            hv = np.unique(hv)
            sig = minhash_signature(hv, self.a, self.b)
            sig_bytes = sig.tobytes()
            w = rows * 8
            for bi in range(self.bands):
                key = zlib.crc32(sig_bytes[bi * w : (bi + 1) * w], bi) | (bi << 32)
                o_band.append(key)
                o_id.append(i)
                if self.emit_sigs:
                    o_sig.append(sig_bytes if bi == 0 else None)
        cols = {"band": pa.array(o_band, pa.uint64()), "id": o_id}
        if self.emit_sigs:
            cols["sig"] = pa.array(o_sig, pa.binary())
        return pa.Table.from_pydict(cols)


def minhash_lsh_pairs(
    ds,
    id_col: str,
    text_col: str,
    *,
    shingle_words: int = 5,
    num_perms: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    seed: int = 42,
):
    """Near-duplicate candidate pairs with exact-jaccard verification.
    Returns Dataset(id_a, id_b, jaccard).

    The verify step needs each pair's two texts. Two paths, chosen by the
    measured candidate count (never by hope):
    - candidates ≤ ``VERIFY_BROADCAST_MAX_PAIRS``: broadcast an id→text map
      built from the candidate ids only (one filtered scan, zero shuffles);
    - above it (dup-heavy crawl shard): join the texts back onto the pair
      rows with two partitioned hash joins — all distributed, the driver
      never holds texts. Output of both paths is identical (tested).
    """
    import ray

    banded = ds.map_batches(
        _MinhashSig,
        fn_constructor_kwargs=dict(
            text_col=text_col, id_col=id_col, k=shingle_words,
            num_perms=num_perms, bands=bands, seed=seed,
        ),
        batch_format="pyarrow",
        concurrency=pool_size(4),
    )

    def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
        # vectorized singleton-bucket drop, then a pandas loop over ONLY the
        # colliding buckets — thousands of buckets per task, never one Ray
        # dispatch per bucket
        part = part[part.duplicated("band", keep=False)]
        out_a, out_b = [], []
        for _, g in part.groupby("band", sort=False):
            for p in _pairs_in_bucket(g["id"].tolist(), DEDUP_PAIR_CAP):
                out_a.append(p[0])
                out_b.append(p[1])
        return pd.DataFrame({"id_a": out_a, "id_b": out_b})

    from ..state.groupby import distinct_rows, partition_reduce

    pairs = distinct_rows(
        partition_reduce(banded, ["band"], pairs_partition, num_partitions=None),
        ["id_a", "id_b"],
    ).materialize()
    n_pairs = pairs.count()  # metadata-only: materialized
    if n_pairs == 0:
        return pairs.map_batches(
            lambda df: df.assign(jaccard=pd.Series(dtype=float)), batch_format="pandas"
        )

    def _verify_frame(batch: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_j = [], [], []
        for a, b, ta, tb in zip(
            batch["id_a"], batch["id_b"], batch["__text_a"], batch["__text_b"]
        ):
            j = jaccard(
                word_shingles(ta or "", shingle_words),
                word_shingles(tb or "", shingle_words),
            )
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(round(j, 6))
        return pd.DataFrame({"id_a": out_a, "id_b": out_b, "jaccard": out_j})

    tier, pairs = choose_tier(pairs, VERIFY_BROADCAST_MAX_PAIRS,
                              what="minhash_verify")
    if tier == "distributed":
        # distributed text-back path: two partitioned hash joins pull each
        # pair's texts onto its row; no driver-side text materialization
        from ..state.joins import hash_join

        texts_a = ds.map_batches(
            lambda df: pd.DataFrame({"id_a": df[id_col], "__text_a": df[text_col]}),
            batch_format="pandas",
        )
        texts_b = ds.map_batches(
            lambda df: pd.DataFrame({"id_b": df[id_col], "__text_b": df[text_col]}),
            batch_format="pandas",
        )
        with_a = hash_join(pairs, texts_a, on="id_a")
        with_b = hash_join(with_a, texts_b, on="id_b")
        return with_b.map_batches(
            _verify_frame, batch_format="pandas", concurrency=pool_size(4)
        )

    pairs_df = pairs.to_pandas()  # Arrow-concat collect, never take_all
    cand_ids = set(pairs_df["id_a"]) | set(pairs_df["id_b"])
    texts_ds = ds.map_batches(
        lambda df: df[df[id_col].isin(cand_ids)][[id_col, text_col]],
        batch_format="pandas",
    )
    tdf = texts_ds.to_pandas()
    text_map = dict(zip(tdf[id_col], tdf[text_col]))
    ref = ray.put(text_map)

    class Verify:
        """Shingle sets computed once per id per actor, not once per pair —
        with b candidate pairs over n docs that is O(n) shingling instead
        of O(b)."""

        def __init__(self):
            self.tm = ray.get(ref)
            self.cache: dict = {}

        def _sh(self, i):
            s = self.cache.get(i)
            if s is None:
                s = self.cache[i] = word_shingles(self.tm.get(i, ""), shingle_words)
            return s

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            out_a, out_b, out_j = [], [], []
            for a, b in zip(batch["id_a"], batch["id_b"]):
                j = jaccard(self._sh(a), self._sh(b))
                if j >= threshold:
                    out_a.append(a)
                    out_b.append(b)
                    out_j.append(round(j, 6))
            return pd.DataFrame({"id_a": out_a, "id_b": out_b, "jaccard": out_j})

    return pairs.map_batches(Verify, batch_format="pandas", concurrency=pool_size(4))


def ngram_jaccard_pairs(ds, id_col: str, text_col: str, *, shingle_words: int = 3,
                        threshold: float = 0.5, seed: int = 42):
    """n-gram Jaccard near-dup = the MinHash-LSH pipeline with a lower
    threshold and smaller shingles (recall-oriented). 16×4 banding: at the
    0.5-0.6 thresholds this targets, 32×2 bands promote nearly EVERY
    moderately-similar pair to a candidate (P≈1 at j=0.4) and verification
    cost explodes quadratically."""
    return minhash_lsh_pairs(
        ds, id_col, text_col,
        shingle_words=shingle_words, num_perms=64, bands=16,
        threshold=threshold, seed=seed,
    )


def _bigrams(text: str) -> list[str]:
    """Word bigrams — unigram SimHash saturates on same-vocabulary corpora
    (every boilerplate-heavy page collides); bigrams restore discrimination."""
    ws = _WORDS.findall((text or "").lower())
    if len(ws) < 2:
        return ws
    return [ws[i] + " " + ws[i + 1] for i in range(len(ws) - 1)]


class _SimhashRows:
    def __init__(self, text_col: str, id_col: str):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_pylist()
        texts = batch[self.text_col].to_pylist()
        sigs = [simhash64(_bigrams(t)) for t in texts]
        return pa.Table.from_pydict(
            {"id": ids, "simhash": pa.array([np.uint64(s) for s in sigs], pa.uint64())}
        )


def simhash_signatures(ds, id_col: str, text_col: str):
    """(id, simhash) rows — the fingerprint table."""
    return ds.map_batches(
        _SimhashRows,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        concurrency=pool_size(4),
    )


def simhash_pairs(ds, id_col: str, text_col: str, *, max_hamming: int = 3):
    """Near-dup pairs by SimHash: band the 64-bit signature into 4×16-bit
    chunks (pigeonhole guarantees any pair with hamming ≤ 3 collides on at
    least one chunk), groupby chunk value, verify hamming distance."""
    sigs = simhash_signatures(ds, id_col, text_col)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_pylist()
        hs = batch["simhash"].to_pylist()
        o_key, o_id, o_sig = [], [], []
        for i, h in zip(ids, hs):
            h = int(h)
            for c in range(4):
                chunk = (h >> (16 * c)) & 0xFFFF
                o_key.append((c << 16) | chunk)
                o_id.append(i)
                o_sig.append(np.uint64(h))
        return pa.Table.from_pydict(
            {"key": pa.array(o_key, pa.int64()), "id": o_id,
             "simhash": pa.array(o_sig, pa.uint64())}
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized hamming verify. Small buckets: all pairs. Oversized
        buckets: rows sorted by (signature, id) and paired consecutively —
        identical/near signatures are adjacent after the sort, so every
        hamming-0 run stays one connected component (no silent pair loss;
        the cap event is logged)."""
        sigs_arr = np.asarray(g["simhash"].tolist(), dtype=np.uint64)
        ids_list = g["id"].tolist()
        order = np.lexsort((np.asarray(ids_list, dtype=object), sigs_arr))
        sigs_arr = sigs_arr[order]
        ids_sorted = [ids_list[i] for i in order]
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype=object), "id_b": pd.Series(dtype=object),
             "hamming": pd.Series(dtype="int64")}
        )
        n = len(ids_sorted)
        if n < 2:
            return empty
        if n <= DEDUP_PAIR_CAP:
            ii, jj = np.triu_indices(n, k=1)
        else:
            _log.warning(
                "simhash pair cap engaged: bucket of %d ids > cap %d, "
                "degrading to a signature-sorted chain", n, DEDUP_PAIR_CAP,
            )
            ii = np.arange(n - 1)
            jj = ii + 1
        x = sigs_arr[ii] ^ sigs_arr[jj]
        d = np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)
        keep = d <= max_hamming
        out_a, out_b, out_d = [], [], []
        for i, j, dist in zip(ii[keep], jj[keep], d[keep]):
            a, b = ids_sorted[i], ids_sorted[j]
            if a == b:
                continue
            if b < a:
                a, b = b, a
            out_a.append(a)
            out_b.append(b)
            out_d.append(int(dist))
        if not out_a:
            return empty
        return pd.DataFrame(
            {"id_a": out_a, "id_b": out_b,
             "hamming": pd.Series(out_d, dtype="int64")}
        )

    def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part.duplicated("key", keep=False)]
        frames = [
            bucket_pairs(g) for _, g in part.groupby("key", sort=False)
        ]
        if not frames:
            return bucket_pairs(part.iloc[0:0])
        return pd.concat(frames, ignore_index=True)

    from ..state.groupby import distinct_rows, partition_reduce

    return distinct_rows(
        partition_reduce(
            sigs.map_batches(explode, batch_format="pyarrow"),
            ["key"],
            pairs_partition,
            num_partitions=None,  # auto-size
        ),
        ["id_a", "id_b"],
    )


def _lev_le1(a: str, b: str) -> int | None:
    """Exact edit distance if ≤1, else None — O(len) two-pointer check
    (no DP table needed at this radius)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return None
    if la == lb:
        return 1 if sum(x != y for x, y in zip(a, b)) == 1 else None
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1:] else None


def fuzzy_pairs(ds, text_col: str, *, num_partitions: int | None = None):
    """Edit-distance-≤1 string pairs via deletion-neighborhood blocking
    (the SymSpell family — Garbe's symmetric-delete scheme): every string
    emits itself plus its ``len`` one-deletion variants as block keys. Two
    strings within distance 1 ALWAYS share a key (equal; one is a deletion
    of the other; same-position substitution ⇒ equal after deleting that
    position), so the blocking has no false negatives, and candidate
    verification is an exact O(len) check — no quadratic all-pairs, no DP.

    The exchange moves (key, string) rows (strings are surface-sized by
    contract — this is an entity-resolution op, not a document op); a pair
    sharing several keys is deduped with one distinct pass. Output:
    (s1, s2, d) with s1 < s2, d ∈ {0, 1}; distance-0 pairs only arise
    from duplicate input rows.
    """
    from ..state.groupby import distinct_rows, partition_reduce

    def keys(df: pd.DataFrame) -> pd.DataFrame:
        ks, ss = [], []
        for s in df[text_col].dropna():
            ks.append(s)
            ss.append(s)
            for i in range(len(s)):
                ks.append(s[:i] + s[i + 1:])
                ss.append(s)
        return pd.DataFrame({"key": ks, "s": ss}).drop_duplicates()

    def bucket_pairs(part: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in part.groupby("key", sort=False):
            vals = sorted(set(g["s"]))
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    out_a.append(vals[i])
                    out_b.append(vals[j])
        return pd.DataFrame({"s1": out_a, "s2": out_b}).drop_duplicates()

    cands = distinct_rows(
        partition_reduce(
            ds.map_batches(keys, batch_format="pandas"), ["key"],
            bucket_pairs, num_partitions=num_partitions,
        ),
        ["s1", "s2"], num_partitions=num_partitions,
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        ds_ = [_lev_le1(a, b) for a, b in zip(df["s1"], df["s2"])]
        keep = [d is not None for d in ds_]
        out = df[keep].copy()
        out["d"] = pd.array([d for d in ds_ if d is not None], dtype="int64")
        return out

    return cands.map_batches(verify, batch_format="pandas")


# ------------------- persisted MinHash index (incremental dedup) -----------

def build_dedup_index(ds, index_dir: str, id_col: str, text_col: str, *,
                      shingle_words: int = 5, num_perms: int = 64,
                      bands: int = 16, seed: int = 42) -> str:
    """Persist the corpus's MinHash state so NEW shards can be near-dup
    checked against the existing corpus WITHOUT recomputing it — the
    continuous-crawl analog of stages/annindex.py (index once at ingest,
    probe forever). Nothing textual is stored: a ``bands`` table
    (band uint64, id) for candidate generation and a ``sigs`` table
    (id, 8·num_perms-byte signature) for verification — ~0.6 KB/doc at
    the defaults vs re-shingling the whole corpus per shard.

    Idempotent (``_SUCCESS`` marker) and atomic (tmp dir + rename), the
    annindex contract. One streaming pass over the corpus; the heavy
    shingle work happens exactly once.
    """
    import json
    import os
    import shutil

    if os.path.exists(os.path.join(index_dir, "_SUCCESS")):
        return index_dir
    tmp = index_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    banded = ds.map_batches(
        _MinhashSig,
        fn_constructor_kwargs=dict(
            text_col=text_col, id_col=id_col, k=shingle_words,
            num_perms=num_perms, bands=bands, seed=seed, emit_sigs=True,
        ),
        batch_format="pyarrow",
        concurrency=pool_size(4),
    ).materialize()  # shingle once; the two writes below are pruned reads
    banded.select_columns(["band", "id"]).write_parquet(
        os.path.join(tmp, "bands"))
    import pyarrow.compute as pc

    banded.map_batches(
        lambda t: t.filter(pc.is_valid(t["sig"])).select(["id", "sig"]),
        batch_format="pyarrow",
    ).write_parquet(os.path.join(tmp, "sigs"))
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"shingle_words": shingle_words, "num_perms": num_perms,
                   "bands": bands, "seed": seed, "id_col": id_col,
                   "text_col": text_col}, f)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("")
    shutil.rmtree(index_dir, ignore_errors=True)
    os.replace(tmp, index_dir)
    return index_dir


def probe_dedup_index(new_ds, index_dir: str, id_col: str, text_col: str, *,
                      threshold: float = 0.8):
    """Near-dup check of a NEW shard against a :func:`build_dedup_index`
    corpus index: returns Dataset(new_id, corpus_id, est_jaccard) for
    every (shard doc, corpus doc) pair sharing an LSH band whose
    signature-agreement estimate ≥ ``threshold``. ``est_jaccard`` is the
    fraction of agreeing MinHash components — unbiased for true Jaccard,
    σ ≈ √(J(1−J)/num_perms) (~0.05 at the 64-perm default; exact dups
    estimate exactly 1.0). The standard index trade: verification never
    touches corpus text, so the probe reads only (band, id) and (id, sig)
    rows.

    Scale shape: shard band rows join the stored band table on the band
    key (hash_join's auto broadcast/shuffle tiers — a shard-sized side
    broadcasts), candidate pairs pull both sigs with the same join
    machinery, and the estimate is one vectorized compare per pair. No
    driver-side collection anywhere.
    """
    import json
    import os

    import ray.data as rd

    from ..state.groupby import distinct_rows
    from ..state.joins import hash_join

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)

    probe = new_ds.map_batches(
        _MinhashSig,
        fn_constructor_kwargs=dict(
            text_col=text_col, id_col=id_col, k=meta["shingle_words"],
            num_perms=meta["num_perms"], bands=meta["bands"],
            seed=meta["seed"], emit_sigs=True,
        ),
        batch_format="pyarrow",
        concurrency=pool_size(4),
    ).materialize()  # reused for bands AND sigs — shingle the shard once

    new_bands = probe.select_columns(["band", "id"]).map_batches(
        lambda df: df.rename(columns={"id": "new_id"}), batch_format="pandas")
    import pyarrow.compute as pc

    new_sigs = probe.map_batches(
        lambda t: t.filter(pc.is_valid(t["sig"])).select(["id", "sig"])
        .rename_columns(["new_id", "new_sig"]),
        batch_format="pyarrow")

    stored_bands = rd.read_parquet(
        os.path.join(index_dir, "bands"), columns=["band", "id"]
    ).map_batches(lambda df: df.rename(columns={"id": "corpus_id"}),
                  batch_format="pandas")
    pairs = distinct_rows(
        hash_join(stored_bands, new_bands, on="band").select_columns(
            ["new_id", "corpus_id"]),
        ["new_id", "corpus_id"],
    )

    stored_sigs = rd.read_parquet(
        os.path.join(index_dir, "sigs"), columns=["id", "sig"]
    ).map_batches(
        lambda df: df.rename(columns={"id": "corpus_id", "sig": "corpus_sig"}),
        batch_format="pandas")
    with_sigs = hash_join(
        hash_join(pairs, new_sigs, on="new_id"), stored_sigs, on="corpus_id")

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"new_id": df.get("new_id", pd.Series(dtype="object")),
                                 "corpus_id": pd.Series(dtype="object"),
                                 "est_jaccard": pd.Series(dtype="float64")})
        a = np.frombuffer(b"".join(df["new_sig"]), dtype=np.uint64).reshape(
            len(df), meta["num_perms"])
        b = np.frombuffer(b"".join(df["corpus_sig"]), dtype=np.uint64).reshape(
            len(df), meta["num_perms"])
        est = (a == b).mean(axis=1)
        out = pd.DataFrame({"new_id": df["new_id"],
                            "corpus_id": df["corpus_id"],
                            "est_jaccard": np.round(est, 6)})
        return out[out["est_jaccard"] >= threshold]

    return with_sigs.map_batches(estimate, batch_format="pandas")


def minhash_threshold_profile(ds, id_col: str, text_col: str, *,
                              shingle_words: int = 5, num_perms: int = 64,
                              band_configs: tuple = (4, 8, 16, 32),
                              seed: int = 42, num_partitions: int | None = None):
    """Dedup-threshold tuning profile — how many candidate pairs each LSH
    banding of the SAME signature set would enumerate. Signatures are the
    expensive part (full shingling pass over the corpus); this computes
    them ONCE (``_MinhashSig`` with bands=1, emit_sigs — one 8·num_perms
    byte row per doc, materialized) and derives every ``bands`` config
    from the stored bytes, so profiling 4 thresholds costs one corpus
    pass + 4 exchanges of (band, id) rows instead of 4 full re-shingles.

    Returns one row per config: (bands, rows_per_band, est_threshold =
    (1/b)^(1/r), the banding's LSH S-curve midpoint, n_candidates =
    DISTINCT candidate pairs the production path (same star-capping)
    would verify). More bands ⇒ lower threshold ⇒ monotonically ≥
    candidates (tested)."""
    import zlib

    from ..state.groupby import distinct_rows, partition_reduce

    sigs = ds.map_batches(
        _MinhashSig,
        fn_constructor_kwargs=dict(
            text_col=text_col, id_col=id_col, k=shingle_words,
            num_perms=num_perms, bands=1, seed=seed, emit_sigs=True,
        ),
        batch_format="pyarrow",
        concurrency=pool_size(4),
    ).map_batches(lambda t: pa.table({"id": t["id"], "sig": t["sig"]}),
                  batch_format="pyarrow").materialize()

    out = []
    for b in band_configs:
        if num_perms % b:
            raise ValueError(f"bands {b} must divide num_perms {num_perms}")
        r = num_perms // b
        w = r * 8

        def band_rows(t: pa.Table, b=b, w=w) -> pa.Table:
            o_band, o_id = [], []
            for i, s in zip(t["id"].to_pylist(), t["sig"].to_pylist()):
                for bi in range(b):
                    o_band.append(
                        zlib.crc32(s[bi * w:(bi + 1) * w], bi) | (bi << 32))
                    o_id.append(i)
            return pa.table({"band": pa.array(o_band, pa.uint64()),
                             "id": o_id})

        def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
            part = part[part.duplicated("band", keep=False)]
            out_a, out_b = [], []
            for _, g in part.groupby("band", sort=False):
                for p in _pairs_in_bucket(g["id"].tolist(), DEDUP_PAIR_CAP):
                    out_a.append(p[0])
                    out_b.append(p[1])
            return pd.DataFrame({"id_a": out_a, "id_b": out_b})

        pairs = distinct_rows(
            partition_reduce(
                sigs.map_batches(band_rows, batch_format="pyarrow"),
                ["band"], pairs_partition, num_partitions=num_partitions),
            ["id_a", "id_b"])
        out.append((b, r, round((1.0 / b) ** (1.0 / r), 4),
                    int(pairs.count())))
    return pd.DataFrame(out, columns=["bands", "rows_per_band",
                                      "est_threshold", "n_candidates"]
                        ).astype({"bands": "int64", "rows_per_band": "int64",
                                  "n_candidates": "int64"})
