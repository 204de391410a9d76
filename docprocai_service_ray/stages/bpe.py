"""Distributed BPE vocabulary learning (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units") — the
tokenizer-training stage of an LLM data pipeline: learn ``num_merges``
byte-pair merges from corpus word frequencies, then tokenize text with
the learned table.

Scale shape — the classic decomposition: the CORPUS-scale work is one
word-count exchange (``token_doc_frequency``'s plan with a plain count);
everything after runs on the DISTINCT-WORD table, which is vocab-sized
(Heaps' law: ~10⁶–10⁷ words at 100 TB, not 10¹¹ tokens). Two tiers off
one shared kernel set (the stages/similarity.kmeans discipline — both
tiers call the same ``_pair_counts`` / ``_merge_word`` kernels, so
forced-tier outputs are identical by construction, and tests assert it):

- driver tier (vocab ≤ ``driver_bpe_max``, metadata-gated): word counts
  collect once; the merge loop keeps an inverted pair→words index so each
  merge touches only the words containing the merged pair (the standard
  in-memory algorithm — this is how HF/sentencepiece train after the
  distributed count too).
- distributed tier: the word table stays a (materialized, vocab-sized)
  Dataset; per merge, per-batch pair-count partials → one pair-keyed
  exchange → per-block top-1 candidates (≤ one row per block crosses to
  the driver) → global argmax broadcast back into a map that rewrites
  affected words. Cost = ``num_merges`` small exchanges over the word
  table; the corpus is never touched again.

Determinism: counts are exact int64; the winning pair is (count DESC,
left ASC, right ASC) — bit-identical at any parallelism, which the
parallelism-invariance test asserts. Python loops run over DISTINCT
WORDS only (the `_partial_agg` "Python touches distinct keys" rule),
never over corpus rows.

Reference anchor: the reference tokenizes via opaque model calls
(fileextractlib/SentenceSplitter.py context); this op exists for the
training-data pipeline surface (tokenizer training is not expressible in
SQL — the registered query is golden-frozen, certified by a
single-process reference mirror in tests/test_bpe.py).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pandas as pd

_EOW = "</w>"  # end-of-word symbol (Sennrich §3.2)
_TOKEN_RE = r"[a-z]+"  # repo-wide tokenizer (token_doc_frequency contract)


# ---------------------------------------------------------------- kernels

def _pair_counts(words: list[tuple[str, ...]], counts: np.ndarray) -> Counter:
    """Adjacent-symbol pair counts over a (distinct-word, count) slice."""
    c: Counter = Counter()
    for syms, n in zip(words, counts):
        n = int(n)
        for i in range(len(syms) - 1):
            c[(syms[i], syms[i + 1])] += n
    return c


def _merge_word(syms: tuple[str, ...], left: str, right: str) -> tuple[str, ...]:
    """Replace every non-overlapping adjacent (left, right) with their
    concatenation, scanning left to right (the Sennrich rule)."""
    out = []
    i, n = 0, len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def _best_pair(c: Counter) -> tuple[tuple[str, str], int] | None:
    if not c:
        return None
    best = min(c.items(), key=lambda kv: (-kv[1], kv[0]))
    return best[0], best[1]


def _word_syms(word: str) -> tuple[str, ...]:
    return tuple(word) + (_EOW,)


# ------------------------------------------------------------ word counts

def word_counts(ds, text_col: str, *, num_partitions: int = 16):
    """Corpus → (word, n) over the repo tokenizer — the single
    corpus-scale exchange of BPE training."""
    from ..state.groupby import partition_reduce

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        e = pd.DataFrame({"word": toks}).explode("word").dropna()
        return e.groupby("word", as_index=False).agg(n=("word", "size"))

    def final(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("word", as_index=False).agg(n=("n", "sum"))
        g["n"] = g["n"].astype("int64")
        return g

    return partition_reduce(ds.map_batches(partial, batch_format="pandas"),
                            ["word"], final, num_partitions=num_partitions)


# ----------------------------------------------------------- driver tier

def _train_driver(wc: pd.DataFrame, num_merges: int,
                  min_pair_count: int) -> pd.DataFrame:
    """In-memory merge loop with a pair→word inverted index: each merge
    recounts only the words that contain the winning pair."""
    words = [_word_syms(w) for w in wc["word"]]
    counts = wc["n"].to_numpy()
    pair_total: Counter = Counter()
    where: dict[tuple[str, str], set[int]] = defaultdict(set)
    for wi, syms in enumerate(words):
        n = int(counts[wi])
        for i in range(len(syms) - 1):
            p = (syms[i], syms[i + 1])
            pair_total[p] += n
            where[p].add(wi)
    merges = []
    for rank in range(num_merges):
        best = _best_pair(pair_total)
        if best is None or best[1] < min_pair_count:
            break
        (left, right), cnt = best
        merges.append((rank, left, right, int(cnt)))
        for wi in list(where[(left, right)]):
            old = words[wi]
            n = int(counts[wi])
            new = _merge_word(old, left, right)
            for i in range(len(old) - 1):
                p = (old[i], old[i + 1])
                pair_total[p] -= n
                if pair_total[p] <= 0:
                    del pair_total[p]
                where[p].discard(wi)
            for i in range(len(new) - 1):
                p = (new[i], new[i + 1])
                pair_total[p] += n
                where[p].add(wi)
            words[wi] = new
    return pd.DataFrame(merges, columns=["rank", "left", "right", "count"]
                        ).astype({"rank": "int64", "count": "int64"})


# ------------------------------------------------------- distributed tier

def _train_distributed(wc_ds, num_merges: int, min_pair_count: int,
                       num_partitions: int) -> pd.DataFrame:
    """Per merge: pair-count partials → one pair-keyed exchange →
    per-block top-1 (≤ one row per block reaches the driver) → winner
    broadcast into the word-rewrite map. Word table materialized
    (vocab-sized by contract)."""
    from ..state.groupby import partition_reduce

    def to_syms(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "syms": [list(_word_syms(w)) for w in df["word"]],
            "n": df["n"].astype("int64"),
        })

    words = wc_ds.map_batches(to_syms, batch_format="pandas").materialize()
    merges = []
    for rank in range(num_merges):
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            c = _pair_counts([tuple(s) for s in df["syms"]],
                             df["n"].to_numpy())
            if not c:
                return pd.DataFrame({"left": pd.Series([], dtype="object"),
                                     "right": pd.Series([], dtype="object"),
                                     "c": pd.Series([], dtype="int64")})
            ks = list(c.keys())
            return pd.DataFrame({"left": [k[0] for k in ks],
                                 "right": [k[1] for k in ks],
                                 "c": [c[k] for k in ks]})

        def reduce_top1(part: pd.DataFrame) -> pd.DataFrame:
            g = part.groupby(["left", "right"], as_index=False).agg(
                c=("c", "sum"))
            g = g.sort_values(["c", "left", "right"],
                              ascending=[False, True, True], kind="stable")
            return g.head(1)

        cands = partition_reduce(
            words.map_batches(partial, batch_format="pandas"),
            ["left", "right"], reduce_top1, num_partitions=num_partitions,
        ).to_pandas()  # ≤ num_partitions rows by construction
        if cands.empty:
            break
        cands = cands.sort_values(["c", "left", "right"],
                                  ascending=[False, True, True], kind="stable")
        left, right, cnt = (cands["left"].iloc[0], cands["right"].iloc[0],
                            int(cands["c"].iloc[0]))
        if cnt < min_pair_count:
            break
        merges.append((rank, left, right, cnt))

        def apply(df: pd.DataFrame, left=left, right=right) -> pd.DataFrame:
            return pd.DataFrame({
                "syms": [list(_merge_word(tuple(s), left, right))
                         for s in df["syms"]],
                "n": df["n"],
            })

        words = words.map_batches(apply, batch_format="pandas").materialize()
    return pd.DataFrame(merges, columns=["rank", "left", "right", "count"]
                        ).astype({"rank": "int64", "count": "int64"})


# ---------------------------------------------------------------- public

def bpe_train(ds, text_col: str, *, num_merges: int = 64,
              min_pair_count: int = 2, driver_vocab_max: int = 200_000,
              force_tier: str | None = None,
              num_partitions: int = 16) -> pd.DataFrame:
    """Learn a BPE merge table from a corpus. Returns (rank, left, right,
    count) — ``count`` is the pair's corpus frequency when it won.
    Tier picked by the DISTINCT-WORD count (a metadata count on the
    reduced word table, never the corpus); ``force_tier`` in
    {"driver", "distributed"} pins it for parity tests."""
    # materialized once: the tier gate's count and either tier reuse it
    wc = word_counts(ds, text_col, num_partitions=num_partitions).materialize()
    tier = force_tier
    if tier is None:
        tier = "driver" if wc.count() <= driver_vocab_max else "distributed"
    if tier == "driver":
        return _train_driver(
            wc.to_pandas().sort_values("word").reset_index(drop=True),
            num_merges, min_pair_count)
    return _train_distributed(wc, num_merges, min_pair_count, num_partitions)


def bpe_encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Tokenize ONE word with a learned merge table: repeatedly apply the
    lowest-rank applicable merge (the standard BPE encode loop)."""
    syms = _word_syms(word)
    while len(syms) > 1:
        best_rank, best_pair = None, None
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (syms[i], syms[i + 1])
        if best_pair is None:
            break
        syms = _merge_word(syms, *best_pair)
    return list(syms)


def bpe_apply(ds, text_col: str, merges: pd.DataFrame, *,
              out_col: str = "bpe_tokens"):
    """Tokenize a corpus with a learned merge table — pure map; the
    merge table (vocab-sized artifact) ships once per worker in the task
    closure, and encoding memoizes per distinct word within each batch."""
    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        cache: dict[str, list[str]] = {}
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        out = []
        for ws in toks:
            row: list[str] = []
            for w in ws:
                enc = cache.get(w)
                if enc is None:
                    enc = bpe_encode_word(w, ranks)
                    cache[w] = enc
                row.extend(enc)
            out.append(row)
        res = df.copy()
        res[out_col] = out
        return res

    return ds.map_batches(fn, batch_format="pandas")
