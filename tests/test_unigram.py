"""Unigram-LM tokenizer (stages/unigram.py): Viterbi kernel, hard-EM
training on planted morphology, forced-tier bit-equality, coverage,
encode round-trip, parallelism invariance."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.unigram import (
    _seed_counts,
    _viterbi,
    unigram_apply,
    unigram_encode_word,
    unigram_train,
)
from docprocai_service_ray.state.tier import forced


class TestViterbi:
    def test_prefers_high_probability_pieces(self):
        logp = {"un": math.log(0.3), "do": math.log(0.3),
                "undo": math.log(0.05),
                "u": math.log(0.1), "n": math.log(0.1),
                "d": math.log(0.1), "o": math.log(0.05)}
        # P(un)·P(do) = 0.09 > P(undo) = 0.05 > char split
        assert _viterbi("undo", logp) == ["un", "do"]

    def test_single_piece_wins_when_likelier(self):
        logp = {"undo": math.log(0.5), "un": math.log(0.1),
                "do": math.log(0.1), "u": math.log(0.05),
                "n": math.log(0.05), "d": math.log(0.05),
                "o": math.log(0.05)}
        assert _viterbi("undo", logp) == ["undo"]

    def test_tie_prefers_fewer_pieces(self):
        p = math.log(0.25)
        logp = {"ab": p, "cd": p, "abcd": 2 * p, "a": p, "b": p,
                "c": p, "d": p}
        # P(abcd) == P(ab)P(cd) exactly — fewer pieces wins
        assert _viterbi("abcd", logp) == ["abcd"]

    def test_coverage_via_chars(self):
        logp = {"x": math.log(0.5), "y": math.log(0.5)}
        assert _viterbi("xyx", logp) == ["x", "y", "x"]

    def test_seed_counts_weighted(self):
        c = _seed_counts(pd.Series(["ab"]), np.array([3]))
        assert c == {"a": 3, "b": 3, "ab": 3}


class TestTraining:
    @pytest.fixture(scope="class")
    def corpus(self, ray_session):
        # planted morphology: stems × suffixes, so 'ing'/'pre' style
        # chunks repeat across many distinct words
        rng = np.random.RandomState(6)
        stems = ["walk", "talk", "jump", "read", "play", "work"]
        suff = ["ing", "ed", "er", "s"]
        words = [s + e for s in stems for e in suff] + stems
        texts = [" ".join(rng.choice(words, size=30)) for _ in range(120)]
        return pd.DataFrame({"doc_id": np.arange(120), "text": texts})

    def test_tiers_bit_equal(self, corpus):
        ds = rd.from_pandas(corpus).repartition(5)
        with forced("driver"):
            a = unigram_train(ds, "text", vocab_size=64, seed_size=512,
                              em_iters=3)
        with forced("distributed"):
            b = unigram_train(ds, "text", vocab_size=64, seed_size=512,
                              em_iters=3)
        pd.testing.assert_frame_equal(a, b)

    def test_morphology_recovered(self, corpus):
        ds = rd.from_pandas(corpus)
        v = unigram_train(ds, "text", vocab_size=40, seed_size=512,
                          em_iters=4)
        pieces = set(v["piece"])
        # the shared suffix 'ing' and at least half the stems survive
        # pruning as whole pieces
        assert sum(1 for s in ["walk", "talk", "jump", "read", "play",
                               "work"] if s in pieces) >= 3
        assert "ing" in pieces or all(s + "ing" in pieces
                                      for s in ["walk", "talk"])

    def test_counts_are_ints_and_probs_normalize(self, corpus):
        v = unigram_train(rd.from_pandas(corpus), "text", vocab_size=64,
                          seed_size=512, em_iters=2)
        assert v["count"].dtype == "int64" and (v["count"] > 0).all()
        assert abs(np.exp(v["logp"]).sum() - 1.0) < 1e-4

    def test_parallelism_invariance(self, corpus):
        outs = [
            unigram_train(rd.from_pandas(corpus).repartition(b), "text",
                          vocab_size=64, seed_size=512, em_iters=3)
            for b in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_encode_roundtrip_and_oov(self, corpus):
        import re

        ds = rd.from_pandas(corpus)
        v = unigram_train(ds, "text", vocab_size=64, seed_size=512,
                          em_iters=2)
        enc = unigram_apply(ds.limit(5), "text", v).to_pandas()
        for _, row in enc.iterrows():
            words = re.findall(r"[a-z]+", row["text"].lower())
            assert "".join(row["pieces"]) == "".join(words)
        # OOV chars segment as single chars (unk convention)
        logp = dict(zip(v["piece"], v["logp"]))
        got = unigram_encode_word("walkqz", logp)
        assert "".join(got) == "walkqz"
