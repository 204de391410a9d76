"""Unigram-LM tokenizer training (Kudo 2018, "Subword Regularization" —
the SentencePiece unigram model, public formulation), hard-EM variant:
the second tokenizer family beside stages/bpe (BPE grows a vocab by
merging; unigram starts from an over-complete substring seed and PRUNES,
scoring segmentations by piece likelihood).

Hard EM (Viterbi E-step) instead of full forward–backward: expected
counts become exact INTEGERS (each distinct word contributes its corpus
count to every piece of its single best segmentation), so the whole
train is int64-deterministic at any parallelism — the kmeans/BPE
fixed-point discipline — and the registered query golden-freezes. The
likelihoods only RANK segmentations; log-probs enter through the
sequential per-word DP (fixed evaluation order ⇒ no accumulation-order
ambiguity).

Scale shape — identical to BPE's decomposition: the CORPUS-scale work is
the ONE word-count exchange (reused from stages/bpe.word_counts);
everything after runs on the vocab-sized DISTINCT-WORD table. Two tiers
off the same kernels (`_viterbi`, `_seed_counts`):

- driver tier (distinct words ≤ bpe.DRIVER_VOCAB_MAX): local loop;
- distributed tier: per EM round, the word table (a materialized
  Dataset) maps Viterbi per batch with the current vocab log-probs
  broadcast via ray.put, emits (piece, n) int partials → one piece-keyed
  exchange → vocab-sized collect → M-step/prune on the driver. Cost =
  em_iters small exchanges; the corpus is never touched again.

Determinism: seed selection, pruning, and the final vocab rank by
(count DESC, piece ASC); Viterbi ties prefer the FEWER-piece
segmentation, then the lexicographically smaller piece at each DP cell.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

_MAX_PIECE_LEN = 8


def _seed_counts(words: pd.Series, counts: np.ndarray,
                 max_len: int = _MAX_PIECE_LEN) -> dict:
    """Substring occurrence counts over the distinct-word table (each
    occurrence weighted by the word's corpus count) — the over-complete
    seed vocabulary."""
    c: dict = {}
    for w, n in zip(words, counts):
        n = int(n)
        L = len(w)
        for i in range(L):
            for j in range(i + 1, min(i + max_len, L) + 1):
                p = w[i:j]
                c[p] = c.get(p, 0) + n
    return c


def _viterbi(word: str, logp: dict, max_len: int = _MAX_PIECE_LEN) -> list:
    """Best segmentation of ``word`` under piece log-probs. Ties prefer
    fewer pieces, then the lexicographically smaller piece ending at the
    cell. Single chars are always in the vocab ⇒ full coverage."""
    L = len(word)
    # dp[i]: (score, n_pieces, piece_ending_here, prev_index)
    NEG = float("-inf")
    dp = [(NEG, 0, "", -1)] * (L + 1)
    dp[0] = (0.0, 0, "", -1)
    for j in range(1, L + 1):
        best = (NEG, 10 ** 9, "", -1)
        for i in range(max(0, j - max_len), j):
            if dp[i][0] == NEG:
                continue
            p = word[i:j]
            lp = logp.get(p)
            if lp is None:
                continue
            cand = (dp[i][0] + lp, dp[i][1] + 1, p, i)
            if (cand[0] > best[0]
                    or (cand[0] == best[0]
                        and (cand[1], cand[2]) < (best[1], best[2]))):
                best = cand
        dp[j] = best
    out = []
    j = L
    while j > 0:
        _, _, p, i = dp[j]
        out.append(p)
        j = i
    return out[::-1]


def _m_step(counts: dict) -> dict:
    total = sum(counts.values())
    return {p: math.log(c / total) for p, c in counts.items() if c > 0}


def _prune(counts: dict, keep: int, chars: set) -> dict:
    """Keep the ``keep`` highest-(count, piece ASC) pieces plus every
    single char (coverage floor)."""
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = dict(ranked[:keep])
    for ch in chars:
        kept.setdefault(ch, max(counts.get(ch, 0), 1))
    return kept


def unigram_train(ds, text_col: str, *, vocab_size: int = 512,
                  seed_size: int = 4096, em_iters: int = 4,
                  shrink_factor: float = 0.75,
                  num_partitions: int = 16) -> pd.DataFrame:
    """Learn a unigram-LM piece vocabulary. Returns (piece, count, logp)
    with logp rounded to 8dp, ranked (count DESC, piece ASC) — ``count``
    is the final hard-EM Viterbi count. Tier picked like ``bpe_train``'s."""
    from ..state.tier import choose_tier
    from .bpe import DRIVER_VOCAB_MAX, word_counts

    tier, wc_ds = choose_tier(
        word_counts(ds, text_col, num_partitions=num_partitions),
        DRIVER_VOCAB_MAX, what="unigram_train")
    wc = None
    if tier == "driver":
        wc = wc_ds.to_pandas().sort_values("word").reset_index(drop=True)
        words, ns = wc["word"], wc["n"].to_numpy()
        seed = _seed_counts(words, ns)
    else:
        def seed_partial(df: pd.DataFrame) -> pd.DataFrame:
            c = _seed_counts(df["word"], df["n"].to_numpy())
            return pd.DataFrame({"piece": list(c), "n": list(c.values())})

        from ..state.groupby import partition_reduce

        seed_df = partition_reduce(
            wc_ds.map_batches(seed_partial, batch_format="pandas"),
            ["piece"],
            lambda p: p.groupby("piece", as_index=False)["n"].sum(),
            num_partitions=num_partitions,
        ).to_pandas()  # vocab-sized collect
        seed = dict(zip(seed_df["piece"], seed_df["n"].astype(int)))

    chars = {p for p in seed if len(p) == 1}
    counts = _prune(seed, seed_size, chars)

    def em_round(counts: dict, keep: int) -> dict:
        logp = _m_step(counts)
        if tier == "driver":
            new: dict = {}
            for w, n in zip(wc["word"], wc["n"].to_numpy()):
                for p in _viterbi(w, logp):
                    new[p] = new.get(p, 0) + int(n)
        else:
            import ray as _ray

            lp_ref = _ray.put(logp)

            def e_partial(df: pd.DataFrame) -> pd.DataFrame:
                lp = _ray.get(lp_ref)
                c: dict = {}
                for w, n in zip(df["word"], df["n"].to_numpy()):
                    for p in _viterbi(w, lp):
                        c[p] = c.get(p, 0) + int(n)
                return pd.DataFrame({"piece": list(c), "n": list(c.values())})

            from ..state.groupby import partition_reduce

            agg = partition_reduce(
                wc_ds.map_batches(e_partial, batch_format="pandas"),
                ["piece"],
                lambda p: p.groupby("piece", as_index=False)["n"].sum(),
                num_partitions=num_partitions,
            ).to_pandas()
            new = dict(zip(agg["piece"], agg["n"].astype(int)))
        return _prune(new, keep, chars)

    keep = len(counts)
    for _ in range(em_iters):
        keep = max(vocab_size, int(keep * shrink_factor))
        counts = em_round(counts, keep)
    counts = _prune(counts, vocab_size, chars)
    logp = _m_step(counts)
    out = pd.DataFrame({
        "piece": list(counts), "count": list(counts.values())})
    out["count"] = out["count"].astype("int64")
    out["logp"] = out["piece"].map(logp).round(8)
    return out.sort_values(["count", "piece"], ascending=[False, True],
                           kind="stable").reset_index(drop=True)


def unigram_encode_word(word: str, logp: dict) -> list:
    """Viterbi-segment one word with a trained vocab; chars absent from
    the vocab segment as themselves (the <unk> convention — callers map
    them to an unk id)."""
    cover = dict(logp)
    floor = min(logp.values()) - 20.0 if logp else -40.0
    for ch in set(word):
        cover.setdefault(ch, floor)
    return _viterbi(word, cover)


def unigram_apply(ds, text_col: str, vocab: pd.DataFrame, *,
                  out_col: str = "pieces"):
    """Tokenize a corpus with a trained vocab — pure map, vocab in the
    closure, per-word memoized (the bpe_apply contract)."""
    logp = dict(zip(vocab["piece"], vocab["logp"]))
    from .bpe import _TOKEN_RE

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        memo: dict = {}

        def enc(text: str) -> list:
            toks = []
            import re

            for w in re.findall(_TOKEN_RE, (text or "").lower()):
                got = memo.get(w)
                if got is None:
                    got = unigram_encode_word(w, logp)
                    memo[w] = got
                toks.extend(got)
            return toks

        df = df.copy()
        df[out_col] = df[text_col].map(enc)
        return df

    return ds.map_batches(fn, batch_format="pandas")
