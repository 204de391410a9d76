"""BPE tokenizer training (stages/bpe): both tiers vs a naive
full-recount single-process reference, forced-tier equality, parallelism
invariance, encode semantics, and stop conditions. The registered
``bpe_merges`` / ``bpe_token_stats`` golden parity at sf0.01 is covered
by tests/test_queries.py."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.bpe import (_best_pair, _merge_word,
                                              _word_syms, bpe_apply,
                                              bpe_encode_word, bpe_train,
                                              word_counts)
from docprocai_service_ray.state.groupby import pin_partitions
from docprocai_service_ray.state.tier import forced

pytestmark = pytest.mark.usefixtures("ray_session")


def naive_bpe(texts, num_merges: int, min_pair_count: int = 2) -> pd.DataFrame:
    """Textbook implementation: full pair recount every merge."""
    wc: Counter = Counter()
    for t in texts:
        for w in re.findall(r"[a-z]+", (t or "").lower()):
            wc[w] += 1
    words = {w: _word_syms(w) for w in wc}
    merges = []
    for rank in range(num_merges):
        c: Counter = Counter()
        for w, syms in words.items():
            for i in range(len(syms) - 1):
                c[(syms[i], syms[i + 1])] += wc[w]
        best = _best_pair(c)
        if best is None or best[1] < min_pair_count:
            break
        (left, right), n = best
        merges.append((rank, left, right, n))
        words = {w: _merge_word(s, left, right) for w, s in words.items()}
    return pd.DataFrame(merges, columns=["rank", "left", "right", "count"]
                        ).astype({"rank": "int64", "count": "int64"})


DOCS = pd.DataFrame({
    "doc_id": np.arange(30, dtype="int64"),
    "text": [
        "the quick brown fox jumps over the lazy dog " * (i % 3 + 1)
        + ["low lower lowest", "new newer newest", "wide wider widest",
           "", None][i % 5] if i % 5 != 4 else None
        for i in range(30)
    ],
})


def _ds(parts: int = 4):
    return rd.from_pandas(DOCS).repartition(parts)


def test_both_tiers_match_naive_reference():
    ref = naive_bpe(DOCS["text"], 24)
    with forced("driver"):
        drv = bpe_train(_ds(), "text", num_merges=24)
    with forced("distributed"):
        dst = bpe_train(_ds(), "text", num_merges=24)
    pd.testing.assert_frame_equal(drv, ref)
    pd.testing.assert_frame_equal(dst, ref)


def test_parallelism_invariance():
    with forced("distributed"):
        with pin_partitions(2):
            ref = bpe_train(_ds(1), "text", num_merges=16)
        for parts, np_ in ((3, 5), (9, 16)):
            with pin_partitions(np_):
                out = bpe_train(_ds(parts), "text", num_merges=16)
            pd.testing.assert_frame_equal(out, ref)


def test_min_pair_count_stop():
    docs = pd.DataFrame({"text": ["ab", "cd"]})  # every pair count = 1
    out = bpe_train(rd.from_pandas(docs), "text", num_merges=10,
                    min_pair_count=2)
    assert len(out) == 0
    # with the gate at 1, merges happen and stop when symbols exhaust
    out1 = bpe_train(rd.from_pandas(docs), "text", num_merges=50,
                     min_pair_count=1)
    assert 0 < len(out1) <= 6  # ≤ total adjacent slots available


def test_word_counts_tokenizer_contract():
    wc = word_counts(rd.from_pandas(pd.DataFrame(
        {"text": ["The THE the, zebra!", None, "zebra9zebra"]})), "text"
    ).to_pandas().sort_values("word").reset_index(drop=True)
    assert wc.to_dict("records") == [
        {"word": "the", "n": 3}, {"word": "zebra", "n": 3}]


def test_encode_applies_merges_in_rank_order():
    merges = pd.DataFrame({
        "rank": [0, 1, 2], "left": ["l", "lo", "w"],
        "right": ["o", "w", "</w>"], "count": [9, 9, 9]})
    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}
    assert bpe_encode_word("low", ranks) == ["low", "</w>"]
    assert bpe_encode_word("wow", ranks) == ["w", "o", "w</w>"]
    assert bpe_encode_word("", ranks) == ["</w>"]


def test_apply_roundtrip_preserves_text_tokens():
    merges = bpe_train(_ds(), "text", num_merges=24)
    enc = bpe_apply(_ds(2), "text", merges).to_pandas()
    # concatenating subwords (minus the end marker) rebuilds each word
    for toks, t in zip(enc["bpe_tokens"], enc["text"]):
        rebuilt = "".join(toks).replace("</w>", " ").split()
        assert rebuilt == re.findall(r"[a-z]+", (t or "").lower())
